// Online-QE: myopic optimal online single-core scheduling (paper §III-B).
//
// At each invocation (time t) the scheduler re-plans QE-OPT over the set
// of ready jobs, treating the currently running job specially: its release
// is rewound by processed/max_speed before Quality-OPT so that already
// completed work counts toward its fair share, and its demand is reduced
// by the processed volume before Energy-OPT so only the remainder is
// re-scheduled. The result is feasible and myopically optimal for the
// ready set, and remains valid when the core's power budget changes
// between invocations (which DES exploits on multicore systems).
#pragma once

#include <span>
#include <vector>

#include "core/flat_map.hpp"
#include "core/job.hpp"
#include "core/schedule.hpp"
#include "sched/quality_opt.hpp"
#include "sched/yds.hpp"

namespace qes {

/// A job visible to the online scheduler at invocation time.
struct ReadyJob {
  JobId id = 0;
  Time deadline = 0.0;
  Work demand = 0.0;     ///< full service demand w_j
  Work processed = 0.0;  ///< volume already executed (p-bar)
  bool running = false;  ///< true for the job currently on the core
};

struct OnlineQeResult {
  /// Timetable from the invocation time onward (releases clamped to now).
  Schedule schedule;
  /// Planned *additional* volume per job (beyond `processed`).
  FlatVolumeMap planned;
};

/// Reusable buffers for the scratch variant (implementation detail;
/// keep one alive across calls).
struct OnlineQeScratch {
  std::vector<Job> adjusted;
  std::vector<Job> step2;
  QualityOptScratch qopt_scratch;
  QualityOptResult qopt;
  YdsScratch yds_scratch;
  YdsResult yds;
};

/// Re-plans the core at time `now` for the given ready jobs under maximum
/// core speed `max_speed` (from the core's power budget). Jobs whose
/// deadline has passed or whose demand is already met are ignored.
/// At most one job may be flagged running, and it must carry the earliest
/// deadline among live ready jobs (always true under FIFO execution of
/// agreeable jobs; the release rewind depends on it).
[[nodiscard]] OnlineQeResult online_qe(Time now,
                                       std::span<const ReadyJob> jobs,
                                       Speed max_speed);

/// Identical arithmetic to online_qe, writing into `out` and drawing
/// temporaries from `scratch` (zero-allocation steady state).
void online_qe_into(Time now, std::span<const ReadyJob> jobs,
                    Speed max_speed, OnlineQeScratch& scratch,
                    OnlineQeResult& out);

}  // namespace qes
