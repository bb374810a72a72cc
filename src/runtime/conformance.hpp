// Conformance harness: replays one trace through sim::Engine (with the
// paper's DES policy) and through the runtime's RuntimeCore driven in
// lockstep — the same event sequence the engine's run loop uses:
// arrivals, quantum firings, deadline expiries, and plan-segment
// boundaries, with triggers evaluated in the same order at each event.
//
// Because RuntimeCore mirrors the engine's integration arithmetic and
// the DES C-DVFS planning pipeline operation for operation, the two runs
// agree on total quality exactly and on energy to floating-point noise;
// the harness is the regression tripwire that keeps the live runtime's
// decisions anchored to the simulator as either side evolves. The
// threaded server shares all of RuntimeCore's arithmetic — only trigger
// *timing* differs live (ticks quantize the wall clock), so agreement
// here transfers to the live path's accounting.
#pragma once

#include <cstddef>
#include <vector>

#include "core/job.hpp"
#include "runtime/core.hpp"
#include "sim/metrics.hpp"

namespace qes::runtime {

struct ConformanceResult {
  RunStats sim;      ///< sim::Engine + make_des_policy (C-DVFS)
  RunStats runtime;  ///< RuntimeCore in lockstep
  /// Job records each plane freed behind its live window during the run
  /// (whole chunks of the shared job store, fed to the accumulator first).
  std::size_t sim_released = 0;
  std::size_t runtime_released = 0;

  [[nodiscard]] double quality_abs_diff() const;
  [[nodiscard]] double energy_rel_diff() const;
};

/// Runs both sides on `jobs` (dense ids 1..n in arrival order, agreeable
/// deadlines) under the shared model parameters in `config`.
[[nodiscard]] ConformanceResult run_conformance(const RuntimeConfig& config,
                                                std::vector<Job> jobs);

/// Drives only the runtime side (exposed for tests and the qesd
/// `--conform` mode, which prints both reports).
[[nodiscard]] RunStats run_lockstep(const RuntimeConfig& config,
                                    std::vector<Job> jobs);

}  // namespace qes::runtime
