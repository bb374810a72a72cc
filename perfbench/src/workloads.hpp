// The benchmark's three workloads. Each runs in its own process (peak
// RSS is a per-process high-water mark), makes its inputs from the seed,
// checks its outputs on every run and reports named metrics: the
// end-to-end set untraced, the per-layer set when traced. See
// perfbench/README.md for why each workload exists.
#pragma once

#include "report.hpp"

namespace perfbench {

/// In-process qesd server on loopback driven by the benchmark's own
/// open-loop Poisson driver through a fixed ladder of offered rates.
[[nodiscard]] Outcome run_wire_ladder(const RunOptions& opts);

/// The diurnal_10m scenario cell with its day compressed, on the
/// streaming sim::Engine.
[[nodiscard]] Outcome run_sim_diurnal(const RunOptions& opts);

/// Lockstep 4-node cluster in the overnight power-down trough, with
/// periodic budget steps and a node kill.
[[nodiscard]] Outcome run_cluster_trough(const RunOptions& opts);

}  // namespace perfbench
