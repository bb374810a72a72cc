// One admitted job's state, shared by both planes' job store
// (obs/job_store.hpp): sim::Engine and runtime::RuntimeCore keep the
// same record and settle it with the same settle_job.
#pragma once

#include <algorithm>
#include <cstdint>

#include "core/job.hpp"
#include "core/quality.hpp"
#include "core/time.hpp"

namespace qes {

struct JobState {
  Job job;
  enum class Phase : std::uint8_t {
    Waiting,
    Assigned,
    Finalized
  } phase = Phase::Waiting;
  bool satisfied = false;  ///< processed == demand at finalization
  /// Extracted by RuntimeCore::abandon_unfinalized() (node kill):
  /// finalized for state bookkeeping but excluded from the run
  /// statistics — the job is re-dispatched and accounted at whichever
  /// node serves it. Always false in the simulator.
  bool abandoned = false;
  int core = -1;              ///< assigned core, -1 while waiting
  Work processed = 0.0;       ///< volume executed so far
  double quality = 0.0;       ///< set at finalization
  Time finalized_at = -1.0;
  /// Dynamic energy integrated over this job's executed segments (the
  /// cached a·s^β per segment times its run time). Summed over jobs plus
  /// the idle residual this partitions dynamic_energy — obs/attribution.hpp.
  Joules energy_j = 0.0;
  /// Opaque completion routing tag (the wire ingress token) copied into
  /// the runtime's JobCompletion; 0 for in-process submissions and in
  /// the simulator.
  std::uint64_t tag = 0;
};

/// Settles a job at finalization: clamps the processed volume to the
/// demand, marks the job satisfied when it met its demand, and credits
/// weight·f(processed) — or, for an all-or-nothing job, weight·f(demand)
/// when satisfied and 0 otherwise (paper §II-A).
inline void settle_job(JobState& st, const QualityFunction& f) {
  st.processed = std::min(st.processed, st.job.demand);
  st.satisfied = demand_met(st.processed, st.job.demand);
  if (!st.job.partial_ok) {
    st.quality = st.satisfied ? st.job.weight * f(st.job.demand) : 0.0;
  } else {
    st.quality = st.job.weight * f(st.processed);
  }
}

}  // namespace qes
