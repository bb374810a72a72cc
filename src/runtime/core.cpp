#include "runtime/core.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <utility>

#include "core/assert.hpp"
#include "obs/trace.hpp"

namespace qes::runtime {

RuntimeCore::RuntimeCore(RuntimeConfig config)
    : cfg_(std::move(config)),
      crr_(static_cast<std::size_t>(std::max(cfg_.cores, 1))),
      planner_(std::make_unique<policy::DesPlanner>(cfg_.registry,
                                                    "runtime")),
      jobs_(cfg_.registry, "qesd") {
  QES_ASSERT(cfg_.cores > 0 && cfg_.power_budget > 0.0);
  // Build the accumulator now so a live /metrics scrape sees its full
  // family set (jobs_total by outcome, quality and latency instruments)
  // from the first request; released chunks advance them during the run.
  (void)jobs_.accumulator();
  ledger_ = obs::EnergyLedger(cfg_.power_model, cfg_.cores, cfg_.registry,
                              cfg_.node_id);
  cores_.resize(static_cast<std::size_t>(cfg_.cores));
  next_quantum_ = cfg_.quantum_ms > 0.0
                      ? cfg_.quantum_ms
                      : std::numeric_limits<double>::infinity();
}

JobState& RuntimeCore::state(JobId id) {
  QES_ASSERT(id >= 1 && id <= jobs_.size());
  return jobs_[id - 1];
}

const JobState& RuntimeCore::job(JobId id) const {
  QES_ASSERT(id >= 1 && id <= jobs_.size());
  return jobs_[id - 1];
}

const Schedule& RuntimeCore::plan(int core) const {
  QES_ASSERT(core >= 0 && core < cfg_.cores);
  return cores_[static_cast<std::size_t>(core)].plan;
}

void RuntimeCore::submit(const Job& job, std::uint64_t tag) {
  QES_ASSERT_MSG(job.id == jobs_.size() + 1,
                 "jobs must carry dense ids 1..n in admission order");
  QES_ASSERT(job.demand > 0.0 && job.deadline > job.release);
  QES_ASSERT_MSG(job.release >= now_ - kPlanSlackEps,
                 "admission must not travel back in time");
  if (!jobs_.empty()) {
    QES_ASSERT_MSG(job.release + kTimeEps >= last_release_ &&
                       job.deadline + kTimeEps >= last_deadline_,
                   "admitted jobs must keep agreeable deadlines");
  }
  last_release_ = job.release;
  last_deadline_ = job.deadline;
  jobs_.admit(job, tag);
  waiting_.push_back(job.id);
  if (cfg_.trace != nullptr) {
    cfg_.trace->push({.kind = obs::TraceEvent::Kind::Release,
                      .t = job.release,
                      .job = job.id});
  }
}

bool RuntimeCore::core_idle(int core) const {
  QES_ASSERT(core >= 0 && core < cfg_.cores);
  const CoreState& c = cores_[static_cast<std::size_t>(core)];
  return c.next_seg >= c.plan.size();
}

bool RuntimeCore::core_asleep(int core) const {
  QES_ASSERT(core >= 0 && core < cfg_.cores);
  return cores_[static_cast<std::size_t>(core)].asleep;
}

void RuntimeCore::assign_to_core(JobId id, int core) {
  QES_ASSERT(core >= 0 && core < cfg_.cores);
  JobState& st = state(id);
  QES_ASSERT_MSG(st.phase == JobState::Phase::Waiting,
                 "only waiting jobs can be assigned");
  auto it = std::find(waiting_.begin(), waiting_.end(), id);
  QES_ASSERT(it != waiting_.end());
  waiting_.erase(it);
  st.phase = JobState::Phase::Assigned;
  st.core = core;
  auto& q = cores_[static_cast<std::size_t>(core)].queue;
  q.insert(std::lower_bound(q.begin(), q.end(), id), id);
  if (cfg_.trace != nullptr) {
    cfg_.trace->push({.kind = obs::TraceEvent::Kind::Assign,
                      .t = now_,
                      .job = id,
                      .core = core});
  }
}

void RuntimeCore::finalize(JobId id) {
  JobState& st = state(id);
  QES_ASSERT(st.phase != JobState::Phase::Finalized);
  if (st.phase == JobState::Phase::Waiting) {
    auto it = std::find(waiting_.begin(), waiting_.end(), id);
    if (it != waiting_.end()) waiting_.erase(it);
  } else {
    auto& q = cores_[static_cast<std::size_t>(st.core)].queue;
    auto it = std::find(q.begin(), q.end(), id);
    QES_ASSERT(it != q.end());
    q.erase(it);
  }
  settle_job(st, cfg_.quality);
  st.phase = JobState::Phase::Finalized;
  st.finalized_at = now_;
  ++finalized_count_;
  if (st.satisfied) ++satisfied_count_;
  quality_sum_ += st.quality;
  ledger_.attribution().on_job(st.job.partial_ok, st.energy_j, st.quality);
  if (cfg_.record_completions) {
    completions_.push_back(
        {id, st.tag, st.satisfied, st.quality, now_ - st.job.release});
  }
  if (cfg_.trace != nullptr) {
    cfg_.trace->push({.kind = obs::TraceEvent::Kind::Finalize,
                      .t = now_,
                      .job = id,
                      .value = st.quality,
                      .satisfied = st.satisfied});
  }
}

void RuntimeCore::expire_due_jobs() {
  while (first_live_ < jobs_.size()) {
    JobState& st = jobs_[first_live_];
    if (st.phase == JobState::Phase::Finalized) {
      ++first_live_;
      continue;
    }
    if (st.job.deadline <= now_ + kTimeEps) {
      finalize(st.job.id);
      ++first_live_;
      continue;
    }
    break;
  }
}

void RuntimeCore::set_core_plan(int core, Schedule& plan) {
  QES_ASSERT(core >= 0 && core < cfg_.cores);
  CoreState& c = cores_[static_cast<std::size_t>(core)];
  plan.check_well_formed();
  for (const Segment& s : plan.segments()) {
    QES_ASSERT_MSG(s.t0 >= now_ - kPlanSlackEps,
                   "plan must start at or after now");
    const JobState& st = job(s.job);
    QES_ASSERT_MSG(st.phase == JobState::Phase::Assigned && st.core == core,
                   "plan segment must reference a live job on this core");
    QES_ASSERT_MSG(s.t1 <= st.job.deadline + kPlanSlackEps,
                   "plan segment must end by the job's deadline");
    QES_ASSERT_MSG(s.speed <= cfg_.max_core_speed + 1e-6,
                   "plan speed exceeds the core's hardware cap");
  }
  // A sleeping core ignores empty installs; real work wakes it.
  if (!plan.empty()) ledger_.wake(c.asleep);
  c.sleep_after = false;
  // Swap rather than move: `plan` keeps the old plan's buffer, so the
  // planner's next fill of it reuses that capacity instead of allocating.
  std::swap(c.plan, plan);
  c.next_seg = 0;
  refresh_seg_power(c);
}

void RuntimeCore::refresh_seg_power(CoreState& c) const {
  // An exhausted plan reads as speed 0. Consecutive segments and
  // re-installed plans often repeat a speed: its stored a·s^β is kept
  // (the model's a and β never change in a run).
  const Speed s = c.next_seg < c.plan.size() ? c.plan[c.next_seg].speed : 0.0;
  if (std::bit_cast<std::uint64_t>(s) ==
      std::bit_cast<std::uint64_t>(c.seg_speed)) {
    return;
  }
  c.seg_speed = s;
  c.seg_power = s > 0.0 ? cfg_.power_model.dynamic_power(s) : 0.0;
}

void RuntimeCore::advance(Time target) {
  QES_ASSERT(target >= now_ - kTimeEps);
  while (true) {
    // Sub-step end: the earliest segment boundary across cores, capped at
    // the target. Power is constant within the sub-step.
    Time step_end = target;
    for (const CoreState& c : cores_) {
      if (c.next_seg >= c.plan.size()) continue;
      const Segment& s = c.plan[c.next_seg];
      step_end = std::min(step_end, s.t0 > now_ + kTimeEps ? s.t0 : s.t1);
    }

    if (step_end > now_ + kTimeEps) {
      const Time dt = step_end - now_;
      Watts total_power = 0.0;
      int active_n = 0;
      for (CoreState& c : cores_) {
        const bool active = c.next_seg < c.plan.size() &&
                            c.plan[c.next_seg].t0 <= now_ + kTimeEps;
        if (!active) continue;  // DVFS-gated cores draw no dynamic power
        ++active_n;
        const Segment& s = c.plan[c.next_seg];
        const Watts pw = c.seg_power;
        total_power += pw;
        JobState& st = state(s.job);
        st.processed += s.speed * dt;
        // Per-job attribution integrates the same a·s^β terms the
        // ledger's run-level sum groups by sub-step; Σ jobs therefore
        // reconciles with it within fp round-off only — the run-level
        // op order is golden-pinned and stays untouched.
        st.energy_j += joules(pw, dt);
        if (cfg_.trace != nullptr) {
          cfg_.trace->push(
              {.kind = obs::TraceEvent::Kind::Exec,
               .t = now_,
               .job = s.job,
               .core = static_cast<int>(&c - cores_.data()),
               .t0 = now_,
               .t1 = step_end,
               .speed = s.speed});
        }
      }
      ledger_.integrate(total_power, /*idle_w=*/0.0, active_n, dt,
                        cfg_.power_budget);
      now_ = step_end;
    }

    // Process segment completions at now_.
    for (CoreState& c : cores_) {
      const std::size_t first_seg = c.next_seg;
      while (c.next_seg < c.plan.size() &&
             c.plan[c.next_seg].t1 <= now_ + kTimeEps) {
        const Segment done = c.plan[c.next_seg];
        ++c.next_seg;
        JobState& st = state(done.job);
        if (st.phase == JobState::Phase::Finalized) continue;
        const bool complete = demand_met(st.processed, st.job.demand);
        bool more_planned = false;
        for (std::size_t k = c.next_seg; k < c.plan.size(); ++k) {
          if (c.plan[k].job == done.job) {
            more_planned = true;
            break;
          }
        }
        if (complete) {
          finalize(done.job);
        } else if (!more_planned) {
          // The core moves past a partially executed job: discarded due
          // to partial evaluation (paper §IV-B).
          finalize(done.job);
        }
      }
      if (c.next_seg != first_seg) refresh_seg_power(c);
      if (c.sleep_after && c.next_seg >= c.plan.size()) {
        // Race-to-idle payoff: the plan ran out flat-out, park now.
        c.sleep_after = false;
        ledger_.park(c.asleep);
      }
    }

    if (now_ >= target - kTimeEps) break;
  }
  now_ = std::max(now_, target);
  expire_due_jobs();
  // Stale segments of finalized jobs are still integrated and swept, so
  // the store keeps every job an installed plan names.
  jobs_.reclaim_dead_prefix(first_live_, cores_, cfg_.quality);
}

bool RuntimeCore::check_triggers() {
  bool replan_due = false;
  if (cfg_.quantum_ms > 0.0 && now_ >= next_quantum_ - kTimeEps) {
    while (next_quantum_ <= now_ + kTimeEps) next_quantum_ += cfg_.quantum_ms;
    replan_due = true;
  }
  if (cfg_.counter_trigger > 0 &&
      waiting_.size() >= static_cast<std::size_t>(cfg_.counter_trigger)) {
    replan_due = true;
  }
  if (cfg_.idle_trigger && !waiting_.empty()) {
    for (int i = 0; i < cfg_.cores; ++i) {
      if (core_idle(i)) {
        replan_due = true;
        break;
      }
    }
  }
  return replan_due;
}

void RuntimeCore::build_view() const {
  view_.reset(now_, cfg_.power_budget, static_cast<std::size_t>(cfg_.cores));
  view_.power_model = &cfg_.power_model;
  view_.quality = &cfg_.quality;
  for (int i = 0; i < cfg_.cores; ++i) {
    policy::CoreView& core = view_.cores[static_cast<std::size_t>(i)];
    core.speed_cap = cfg_.max_core_speed;
    for (JobId id : cores_[static_cast<std::size_t>(i)].queue) {
      const JobState& st = job(id);
      QES_ASSERT(st.job.deadline > now_ + kTimeEps);
      core.jobs.push_back(policy::ViewJob{.id = id,
                                          .deadline = st.job.deadline,
                                          .demand = st.job.demand,
                                          .processed = st.processed,
                                          .weight = st.job.weight,
                                          .partial_ok = st.job.partial_ok});
    }
  }
}

Watts RuntimeCore::power_request() const {
  build_view();
  return planner_->total_power_request(view_);
}

void RuntimeCore::set_power_budget(Watts budget) {
  QES_ASSERT_MSG(budget > 0.0, "power budget must be positive");
  cfg_.power_budget = budget;
}

std::vector<AbandonedJob> RuntimeCore::abandon_unfinalized() {
  std::vector<AbandonedJob> out;
  for (std::size_t k = first_live_; k < jobs_.size(); ++k) {
    JobState& st = jobs_[k];
    if (st.phase == JobState::Phase::Finalized) continue;
    const Work remaining = st.job.demand - st.processed;
    if (remaining <= kCompletionRelEps * std::max(1.0, st.job.demand)) {
      // Within completion tolerance: the work was done here, so the
      // quality is credited here instead of shipping a zero-demand stub.
      finalize(st.job.id);
      continue;
    }
    out.push_back(AbandonedJob{.remaining = remaining,
                               .partial_ok = st.job.partial_ok,
                               .weight = st.job.weight});
    if (st.phase == JobState::Phase::Waiting) {
      auto it = std::find(waiting_.begin(), waiting_.end(), st.job.id);
      QES_ASSERT(it != waiting_.end());
      waiting_.erase(it);
    } else {
      auto& q = cores_[static_cast<std::size_t>(st.core)].queue;
      auto it = std::find(q.begin(), q.end(), st.job.id);
      QES_ASSERT(it != q.end());
      q.erase(it);
    }
    st.phase = JobState::Phase::Finalized;
    st.abandoned = true;
    st.finalized_at = now_;
    ++finalized_count_;
    ledger_.attribution().on_abandoned(st.energy_j);
  }
  for (CoreState& c : cores_) {
    c.plan = Schedule{};
    c.next_seg = 0;
    refresh_seg_power(c);
    c.sleep_after = false;  // nothing left to race for; stay as-is
  }
  return out;
}

void RuntimeCore::replan() {
  ++replans_;
  if (cfg_.trace != nullptr) {
    cfg_.trace->push({.kind = obs::TraceEvent::Kind::Replan,
                      .t = now_,
                      .value = static_cast<double>(waiting_.size())});
  }
  // Step 1: ready-job distribution (C-RR with the persistent cursor).
  {
    obs::PhaseProfiler::Scope timer(planner_->begin_replan_profile());
    replan_waiting_.assign(waiting_.begin(), waiting_.end());
    crr_.distribute_into(replan_waiting_.size(), replan_targets_);
    for (std::size_t k = 0; k < replan_waiting_.size(); ++k) {
      assign_to_core(replan_waiting_[k],
                     static_cast<int>(replan_targets_[k]));
    }
  }

  // Steps 2-4 (budget-free YDS, WF power split, budget-bounded Online-QE
  // with the §V-D rigid loop) run in the shared planner kernel against
  // the WorldView snapshot; the runtime serves the paper's default
  // model, i.e. PlanOptions{} on continuous C-DVFS.
  build_view();
  planner_->plan_c_dvfs(view_, policy::PlanOptions{}, plan_out_);

  // Apply per core, in order: rigid discards (discovery order), then
  // passed-over drops (queue order), then the plan — the same
  // finalization sequence as the in-place legacy pipeline, keeping the
  // quality accumulation order (and thus conformance) bitwise intact.
  for (int i = 0; i < cfg_.cores; ++i) {
    policy::CoreOutcome& c = plan_out_.cores[static_cast<std::size_t>(i)];
    for (JobId id : c.rigid_discards) finalize(id);
    for (JobId id : c.passed_over) finalize(id);
    set_core_plan(i, c.plan);
    if (ledger_.sleep_mode()) {
      cores_[static_cast<std::size_t>(i)].sleep_after = c.sleep_after;
    }
  }
}

Time RuntimeCore::earliest_live_deadline() const {
  for (std::size_t k = first_live_; k < jobs_.size(); ++k) {
    if (jobs_[k].phase != JobState::Phase::Finalized) {
      return jobs_[k].job.deadline;
    }
  }
  return std::numeric_limits<double>::infinity();
}

Time RuntimeCore::next_plan_event() const {
  Time t = std::numeric_limits<double>::infinity();
  for (const CoreState& c : cores_) {
    if (c.next_seg >= c.plan.size()) continue;
    const Segment& s = c.plan[c.next_seg];
    t = std::min(t, s.t0 > now_ + kTimeEps ? s.t0 : s.t1);
  }
  return t;
}

Time RuntimeCore::horizon() const {
  return jobs_.empty() ? now_ : last_deadline_;
}

Watts RuntimeCore::planned_power_now() const {
  Watts total = 0.0;
  for (const CoreState& c : cores_) {
    if (c.next_seg >= c.plan.size()) continue;
    if (c.plan[c.next_seg].t0 <= now_ + kTimeEps) total += c.seg_power;
  }
  return total;
}

CoreCounters RuntimeCore::counters() const {
  CoreCounters c;
  c.now = now_;
  c.admitted = jobs_.size();
  c.waiting = waiting_.size();
  for (const CoreState& cs : cores_) c.assigned += cs.queue.size();
  c.finalized = finalized_count_;
  c.satisfied = satisfied_count_;
  c.quality_sum = quality_sum_;
  c.dynamic_energy = ledger_.dynamic_energy();
  c.planned_power = planned_power_now();
  c.peak_power = ledger_.peak_power();
  c.replans = replans_;
  c.static_energy = ledger_.attribution().static_energy();
  c.wake_energy = ledger_.attribution().wake_energy();
  c.core_wakes = ledger_.wakes();
  c.cores_asleep = static_cast<std::size_t>(ledger_.asleep());
  c.resident_jobs = jobs_.size() - jobs_.released();
  return c;
}

void RuntimeCore::drain_completions(std::vector<JobCompletion>& out) {
  out.insert(out.end(), completions_.begin(), completions_.end());
  completions_.clear();
}

RunStats RuntimeCore::finish(Time end_time) {
  QES_ASSERT_MSG(all_finalized(), "finish() requires every job finalized");
  advance(std::max(end_time, now_));
  // The same id-order feed as sim::Engine's, under the "qesd" prefix:
  // the released prefix is already in, the rest follows.
  jobs_.feed_upto(jobs_.size(), cfg_.quality);
  return ledger_.finish(jobs_.accumulator(), now_, replans_);
}

}  // namespace qes::runtime
