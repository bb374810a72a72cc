#include "sched/online_qe.hpp"

#include <algorithm>

#include "core/assert.hpp"

namespace qes {

void online_qe_into(Time now, std::span<const ReadyJob> jobs,
                    Speed max_speed, OnlineQeScratch& scratch,
                    OnlineQeResult& out) {
  QES_ASSERT_MSG(max_speed > 0.0, "Online-QE needs a positive max speed");
  out.schedule.clear();
  out.planned.clear();

  // Build the adjusted job set J'_t: the running job's release is rewound
  // by processed/max_speed, every other job is released "now".
  std::vector<Job>& adjusted = scratch.adjusted;
  adjusted.clear();
  adjusted.reserve(jobs.size());
  int running_count = 0;
  Time min_deadline = kNoDeadline;
  for (const ReadyJob& rj : jobs) {
    if (rj.deadline > now + kTimeEps && rj.demand - rj.processed > kTimeEps) {
      min_deadline = std::min(min_deadline, rj.deadline);
    }
  }
  for (const ReadyJob& rj : jobs) {
    if (rj.deadline <= now + kTimeEps) continue;          // expired
    if (rj.demand - rj.processed <= kTimeEps) continue;   // already done
    Job j;
    j.id = rj.id;
    j.deadline = rj.deadline;
    j.demand = rj.demand;
    if (rj.running) {
      ++running_count;
      QES_ASSERT_MSG(running_count == 1, "at most one running job");
      // FIFO execution of agreeable jobs means the job on the core
      // arrived first, hence has the earliest deadline; the release
      // rewind below relies on that to keep the adjusted set agreeable.
      QES_ASSERT_MSG(rj.deadline <= min_deadline + kTimeEps,
                     "running job must have the earliest deadline");
      j.release = now - rj.processed / max_speed;
    } else {
      QES_ASSERT_MSG(rj.processed <= kTimeEps,
                     "only the running job may have prior volume here; use "
                     "the baseline-aware Quality-OPT for the resume model");
      j.release = now;
    }
    adjusted.push_back(j);
  }
  if (adjusted.empty()) return;
  // Callers hand the ready jobs over in deadline order with the running
  // job first, which its rewound release keeps first: already sorted, so
  // this is one O(n) check.
  sort_by_release(adjusted);

  // Step 1: Quality-OPT at max speed fixes total volumes p_j.
  quality_opt_into(adjusted, max_speed, {}, scratch.qopt_scratch,
                   scratch.qopt);
  const QualityOptResult& q = scratch.qopt;

  // Step 2: rewrite demands to the *remaining* planned volume, re-release
  // everything at `now`, and let YDS pick the speeds from now onward.
  std::vector<Job>& step2 = scratch.step2;
  step2.clear();
  step2.reserve(adjusted.size());
  for (std::size_t k = 0; k < adjusted.size(); ++k) {
    Job j = adjusted[k];
    Work planned = q.volumes[k];
    if (j.release < now - kTimeEps) {
      // Running job: subtract the already-processed volume.
      planned -= (now - j.release) * max_speed;
    }
    if (planned <= kTimeEps) continue;  // fully served already
    j.release = now;
    j.demand = planned;
    out.planned[j.id] = planned;
    step2.push_back(j);
  }
  if (step2.empty()) return;
  // Re-released at `now`, the list orders by deadline alone, and the
  // running job may trail another deadline by under kTimeEps.
  sort_by_release(step2);

  yds_schedule_capped_into(step2, max_speed, scratch.yds_scratch,
                           scratch.yds);
  out.schedule = scratch.yds.schedule;
  // Planned volumes follow the (possibly hair's-breadth rescaled)
  // schedule so execution accounting matches the plan exactly.
  for (auto& [id, planned] : out.planned) {
    planned = std::min(planned, out.schedule.volume_of(id));
  }
}

OnlineQeResult online_qe(Time now, std::span<const ReadyJob> jobs,
                         Speed max_speed) {
  OnlineQeScratch scratch;
  OnlineQeResult out;
  online_qe_into(now, jobs, max_speed, scratch, out);
  return out;
}

}  // namespace qes
