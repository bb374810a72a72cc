// WF: Water-Filling power distribution across cores (paper §IV-C) and
// its discrete-speed rectification (paper §V-F).
//
// Given per-core requested powers h_i and a total budget H, WF assigns
// a_i = min(h_i, L) where the level L is chosen so the assignments sum to
// min(H, sum h_i): cores below the level get exactly what they asked for,
// the rest share the remainder equally. This is the max-min fair
// allocation and, by convexity of P(s), maximizes the total speed.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "core/power.hpp"
#include "core/time.hpp"

namespace qes {

/// Distributes `budget` watts over cores requesting `requested` watts.
/// Returns the per-core assignment; conserves min(budget, sum requested).
[[nodiscard]] std::vector<Watts> waterfill_power(
    std::span<const Watts> requested, Watts budget);

/// Reusable buffers for the scratch variant.
struct WaterfillPowerScratch {
  std::vector<std::size_t> order;  // cores by ascending request
  std::vector<Watts> raises;       // the raise of every round so far
};

/// Identical arithmetic to waterfill_power, writing the assignment into
/// `out` and drawing temporaries from `scratch` (zero-allocation steady
/// state). It keeps the paper's rounds, bit for bit, but sorts the cores
/// by request once instead of rescanning all of them every round: a
/// round costs one subtraction per unsatisfied core, and a core's
/// outstanding request is evaluated only when it reaches the front.
void waterfill_power_into(std::span<const Watts> requested, Watts budget,
                          WaterfillPowerScratch& scratch,
                          std::vector<Watts>& out);

/// §V-F discrete rectification. `continuous` holds the per-core speeds
/// implied by a WF assignment whose powers sum to <= budget. Starting
/// from the core with the lowest assigned power, each speed is snapped
/// UP to the nearest discrete level if the pooled budget still allows,
/// otherwise down to the next lower level (nullopt => the core idles).
/// The returned speeds always satisfy sum_i P(speed_i) <= budget.
[[nodiscard]] std::vector<std::optional<Speed>> rectify_speeds_discrete(
    std::span<const Speed> continuous, Watts budget,
    const DiscreteSpeedSet& levels, const PowerModel& pm);

}  // namespace qes
