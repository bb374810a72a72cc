// Volume water-filling: the concave allocation core of Quality-OPT.
//
// Given items with demand caps w_j, optional baseline (already processed)
// volumes b_j, and a work capacity C, allocate incremental volumes x_j >= 0
// with b_j + x_j <= w_j and sum(x_j) <= C so as to maximize sum f(b_j + x_j)
// for ANY shared concave increasing f. The optimum fills all items to a
// common level L (clamped to their caps): this level is exactly the
// paper's "d-mean" of an interval when baselines are zero (§III-A).
#pragma once

#include <span>
#include <vector>

#include "core/time.hpp"

namespace qes {

struct WaterfillResult {
  /// Incremental allocation per item (excludes the baseline).
  std::vector<Work> alloc;
  /// Final water level L. +infinity when the capacity satisfies every
  /// item (the paper defines the d-mean of such an interval as infinite).
  double level = 0.0;
  /// True when every item reached its cap.
  bool all_satisfied = false;
  /// Work actually allocated: min(C, sum of remaining demand).
  Work used = 0.0;
};

/// Water-fill with per-item baselines. Preconditions: caps.size() ==
/// baselines.size(), 0 <= baselines[i] <= caps[i], capacity >= 0.
[[nodiscard]] WaterfillResult waterfill_volumes(std::span<const Work> caps,
                                                std::span<const Work> baselines,
                                                Work capacity);

/// Water-fill with zero baselines (the Quality-OPT d-mean computation).
[[nodiscard]] WaterfillResult waterfill_volumes(std::span<const Work> caps,
                                                Work capacity);

/// The water level reached by pouring `capacity` over the items whose
/// fill starts (baselines b_i) and saturation points (caps w_i) `starts`
/// and `ends` hold, each in ascending order; every item has w_i > b_i.
/// This is waterfill_volumes_into's level whenever its capacity is
/// positive and short of the items' total remaining demand. The sweep
/// reads the two lists as one, starts before ends at equal values, and
/// values equal in a list are interchangeable, so any two lists holding
/// the same values sweep to the same bits: Quality-OPT's interval
/// search keeps its lists sorted by insertion and agrees bit for bit
/// with a water-fill that sorts from scratch.
[[nodiscard]] double waterfill_sweep_level(std::span<const Work> starts,
                                           std::span<const Work> ends,
                                           Work capacity);

/// Reusable buffers for the scratch variant below (contents are
/// implementation detail; callers just keep one alive across calls).
struct WaterfillScratch {
  std::vector<Work> starts;
  std::vector<Work> ends;
  std::vector<Work> zeros;
};

/// Identical arithmetic to waterfill_volumes, but fills `out` and draws
/// temporaries from `scratch` so steady-state callers stay off the heap.
void waterfill_volumes_into(std::span<const Work> caps,
                            std::span<const Work> baselines, Work capacity,
                            WaterfillScratch& scratch, WaterfillResult& out);

/// Zero-baseline scratch variant.
void waterfill_volumes_into(std::span<const Work> caps, Work capacity,
                            WaterfillScratch& scratch, WaterfillResult& out);

}  // namespace qes
