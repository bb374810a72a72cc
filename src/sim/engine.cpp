#include "sim/engine.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/trace.hpp"

namespace qes {

void Engine::init_runtime() {
  QES_ASSERT(cfg_.cores > 0 && cfg_.power_budget > 0.0);
  QES_ASSERT_MSG(cfg_.per_core_max_speed.empty() ||
                     cfg_.per_core_max_speed.size() ==
                         static_cast<std::size_t>(cfg_.cores),
                 "per_core_max_speed must have one entry per core");
  for (Speed cap : cfg_.per_core_max_speed) QES_ASSERT(cap > 0.0);
  QES_ASSERT(policy_ != nullptr);
  for (std::size_t k = 0; k < cfg_.budget_steps.size(); ++k) {
    QES_ASSERT_MSG(cfg_.budget_steps[k].budget > 0.0,
                   "budget steps must keep H positive");
    QES_ASSERT_MSG(cfg_.budget_steps[k].at >= 0.0 &&
                       (k == 0 || cfg_.budget_steps[k].at >=
                                      cfg_.budget_steps[k - 1].at),
                   "budget steps must be sorted by time");
  }
  cores_.resize(static_cast<std::size_t>(cfg_.cores));
  pending_.resize(cores_.size());
  live_.reserve(cores_.size());
  due_.reserve(cores_.size());
  dirty_cores_.reserve(cores_.size());
  ledger_ = obs::EnergyLedger(cfg_.power_model, cfg_.cores, cfg_.registry,
                              /*node=*/0);
  jobs_ = obs::JobStore(cfg_.registry, "qes_sim");
}

Engine::Engine(EngineConfig config, std::vector<Job> jobs,
               std::unique_ptr<SchedulingPolicy> policy)
    : cfg_(std::move(config)), policy_(std::move(policy)) {
  init_runtime();
  sort_by_release(jobs);
  QES_ASSERT_MSG(deadlines_agreeable(jobs),
                 "engine requires agreeable deadlines");
  jobs_.reserve(jobs.size());
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    QES_ASSERT_MSG(jobs[k].id == k + 1,
                   "jobs must carry dense ids 1..n in arrival order");
    QES_ASSERT(jobs[k].demand > 0.0 && jobs[k].deadline > jobs[k].release);
    jobs_.admit(jobs[k]);
  }
  if (!jobs.empty()) final_deadline_ = jobs.back().deadline;
}

Engine::Engine(EngineConfig config, std::unique_ptr<JobStream> stream,
               std::unique_ptr<SchedulingPolicy> policy)
    : cfg_(std::move(config)),
      policy_(std::move(policy)),
      stream_(std::move(stream)) {
  init_runtime();
  QES_ASSERT(stream_ != nullptr);
  pending_arrival_ = stream_->next();
}

Engine::~Engine() = default;

void Engine::admit_streamed_arrival() {
  const Job& j = *pending_arrival_;
  QES_ASSERT_MSG(j.id == jobs_.size() + 1,
                 "stream must yield dense ids 1..n in arrival order");
  QES_ASSERT(j.demand > 0.0 && j.deadline > j.release);
  QES_ASSERT_MSG(j.release + kTimeEps >= last_release_,
                 "stream releases must be non-decreasing");
  QES_ASSERT_MSG(j.deadline + kTimeEps >= final_deadline_,
                 "stream deadlines must be agreeable");
  last_release_ = j.release;
  final_deadline_ = std::max(final_deadline_, j.deadline);
  jobs_.admit(j);
  waiting_.push_back(j.id);
  if (cfg_.trace != nullptr) {
    cfg_.trace->push(
        {.kind = obs::TraceEvent::Kind::Release, .t = now_, .job = j.id});
  }
  next_arrival_ = jobs_.size();
  pending_arrival_ = stream_->next();
}

JobState& Engine::state(JobId id) {
  QES_ASSERT(id >= 1 && id <= jobs_.size());
  return jobs_[id - 1];
}

void Engine::load_pending(int core) {
  const CoreRuntime& c = cores_[static_cast<std::size_t>(core)];
  PendingSeg& p = pending_[static_cast<std::size_t>(core)];
  p.power_w = -1.0;
  if (c.next_seg < c.plan.size()) {
    const Segment& s = c.plan[c.next_seg];
    p.t0 = s.t0;
    p.t1 = s.t1;
    p.speed = s.speed;
    p.job = &state(s.job);
  } else {
    p.t0 = kNever;
    p.t1 = kNever;
    p.speed = 0.0;
    p.job = nullptr;
  }
}

const JobState& Engine::job(JobId id) const {
  QES_ASSERT(id >= 1 && id <= jobs_.size());
  return jobs_[id - 1];
}

std::span<const JobId> Engine::assigned(int core) const {
  QES_ASSERT(core >= 0 && core < cfg_.cores);
  return cores_[static_cast<std::size_t>(core)].queue;
}

bool Engine::core_idle(int core) const {
  QES_ASSERT(core >= 0 && core < cfg_.cores);
  const CoreRuntime& c = cores_[static_cast<std::size_t>(core)];
  return c.next_seg >= c.plan.size();
}

void Engine::mark_dirty(int core) {
  CoreRuntime& c = cores_[static_cast<std::size_t>(core)];
  if (!c.dirty) {
    c.dirty = true;
    dirty_cores_.push_back(core);
  }
}

void Engine::enter_live(int core) {
  CoreRuntime& c = cores_[static_cast<std::size_t>(core)];
  if (c.in_live) return;
  c.in_live = true;
  live_.insert(std::lower_bound(live_.begin(), live_.end(), core), core);
}

void Engine::assign_to_core(JobId id, int core) {
  QES_ASSERT(core >= 0 && core < cfg_.cores);
  JobState& st = state(id);
  QES_ASSERT_MSG(st.phase == JobState::Phase::Waiting,
                 "only waiting jobs can be assigned");
  auto it = std::lower_bound(waiting_.begin(), waiting_.end(), id);
  QES_ASSERT(it != waiting_.end() && *it == id);
  waiting_.erase(it);
  st.phase = JobState::Phase::Assigned;
  st.core = core;
  if (cfg_.trace != nullptr) {
    cfg_.trace->push({.kind = obs::TraceEvent::Kind::Assign,
                      .t = now_,
                      .job = id,
                      .core = core});
  }
  // Keep the queue in id (== arrival == deadline) order; rebalanced jobs
  // may slot in ahead of later arrivals.
  auto& q = cores_[static_cast<std::size_t>(core)].queue;
  q.insert(std::lower_bound(q.begin(), q.end(), id), id);
}

void Engine::discard_job(JobId id) { finalize(id); }

void Engine::unassign_from_core(JobId id) {
  JobState& st = state(id);
  QES_ASSERT_MSG(st.phase == JobState::Phase::Assigned,
                 "only assigned jobs can be unassigned");
  QES_ASSERT_MSG(st.processed <= kTimeEps,
                 "started jobs never migrate (non-migratory model)");
  const int core = st.core;
  CoreRuntime& c = cores_[static_cast<std::size_t>(core)];
  auto it = std::lower_bound(c.queue.begin(), c.queue.end(), id);
  QES_ASSERT(it != c.queue.end() && *it == id);
  c.queue.erase(it);
  c.plan.clear();
  c.next_seg = 0;
  load_pending(core);
  boundary_valid_ = false;
  c.sleep_after = false;  // the policy installs a fresh plan next
  mark_dirty(core);
  st.phase = JobState::Phase::Waiting;
  st.core = -1;
  // Waiting stays in arrival (== id) order.
  auto pos = std::lower_bound(waiting_.begin(), waiting_.end(), id);
  waiting_.insert(pos, id);
}

void Engine::set_core_plan(int core, const Schedule& plan) {
  QES_ASSERT(core >= 0 && core < cfg_.cores);
  CoreRuntime& c = cores_[static_cast<std::size_t>(core)];
  plan.check_well_formed();
  for (const Segment& s : plan.segments()) {
    QES_ASSERT_MSG(s.t0 >= now_ - kPlanSlackEps,
                   "plan must start at or after now");
    const JobState& st = job(s.job);
    QES_ASSERT_MSG(st.phase == JobState::Phase::Assigned && st.core == core,
                   "plan segment must reference a live job on this core");
    QES_ASSERT_MSG(s.t1 <= st.job.deadline + kPlanSlackEps,
                   "plan segment must end by the job's deadline");
    QES_ASSERT_MSG(s.speed <= cfg_.core_speed_cap(core) + 1e-6,
                   "plan speed exceeds the core's hardware cap");
  }
  // A sleeping core ignores empty installs (it keeps saving leakage for
  // free); real work wakes it.
  if (!plan.empty()) ledger_.wake(c.asleep);
  c.sleep_after = false;  // re-armed via set_core_sleep after install
  c.plan = plan;  // copy-assign: the slot's capacity is reused
  c.next_seg = 0;
  load_pending(core);
  boundary_valid_ = false;
  mark_dirty(core);
  if (!c.plan.empty()) enter_live(core);
}

void Engine::set_core_idle_power(int core, Watts watts) {
  QES_ASSERT(core >= 0 && core < cfg_.cores);
  QES_ASSERT(watts >= 0.0);
  pending_[static_cast<std::size_t>(core)].idle_w = watts;
  if (watts > 0.0) enter_live(core);
}

void Engine::set_core_sleep(int core, bool sleep_after) {
  QES_ASSERT(core >= 0 && core < cfg_.cores);
  if (!ledger_.sleep_mode()) return;
  QES_ASSERT_MSG(!sleep_after ||
                     pending_[static_cast<std::size_t>(core)].idle_w <= 0.0,
                 "a core cannot both burn idle power and park");
  cores_[static_cast<std::size_t>(core)].sleep_after = sleep_after;
}

void Engine::finalize(JobId id) {
  JobState& st = state(id);
  QES_ASSERT(st.phase != JobState::Phase::Finalized);
  if (st.phase == JobState::Phase::Waiting) {
    auto it = std::lower_bound(waiting_.begin(), waiting_.end(), id);
    if (it != waiting_.end() && *it == id) waiting_.erase(it);
  } else {
    auto& q = cores_[static_cast<std::size_t>(st.core)].queue;
    auto it = std::lower_bound(q.begin(), q.end(), id);
    QES_ASSERT(it != q.end() && *it == id);
    q.erase(it);
  }
  settle_job(st, cfg_.quality);
  st.phase = JobState::Phase::Finalized;
  st.finalized_at = now_;
  ++finalized_count_;
  ledger_.attribution().on_job(st.job.partial_ok, st.energy_j, st.quality);
  if (cfg_.trace != nullptr) {
    cfg_.trace->push({.kind = obs::TraceEvent::Kind::Finalize,
                      .t = now_,
                      .job = id,
                      .value = st.quality,
                      .satisfied = st.satisfied});
  }
}

void Engine::expire_due_jobs() {
  while (first_live_ < jobs_.size()) {
    JobState& st = jobs_[first_live_];
    if (st.phase == JobState::Phase::Finalized) {
      ++first_live_;
      continue;
    }
    if (first_live_ >= next_arrival_) break;  // not yet arrived
    if (st.job.deadline <= now_ + kTimeEps) {
      finalize(st.job.id);
      ++first_live_;
      continue;
    }
    break;
  }
}

void Engine::refresh_events() {
  if (arrivals_pending() && pushed_arrival_ != next_arrival_) {
    pushed_arrival_ = next_arrival_;
    events_.push(next_arrival_release(), Ev{Ev::Kind::Arrival, 0, next_arrival_});
  }
  if (cfg_.quantum_ms > 0.0 && pushed_quantum_ != next_quantum_) {
    pushed_quantum_ = next_quantum_;
    events_.push(next_quantum_, Ev{Ev::Kind::Quantum, 0, 0});
  }
  if (first_live_ < next_arrival_ && pushed_deadline_ != first_live_) {
    pushed_deadline_ = first_live_;
    events_.push(jobs_[first_live_].job.deadline,
                 Ev{Ev::Kind::Deadline, 0, first_live_});
  }
  if (next_budget_step_ < cfg_.budget_steps.size() &&
      pushed_budget_ != next_budget_step_) {
    pushed_budget_ = next_budget_step_;
    events_.push(cfg_.budget_steps[next_budget_step_].at,
                 Ev{Ev::Kind::BudgetStep, 0, next_budget_step_});
  }
  for (int i : dirty_cores_) {
    CoreRuntime& c = cores_[static_cast<std::size_t>(i)];
    c.dirty = false;
    ++c.wake_gen;  // orphan any queued wake for the stale candidate
    const PendingSeg& p = pending_[static_cast<std::size_t>(i)];
    if (p.job != nullptr) {
      events_.push(
          boundary_after(p, now_),
          Ev{Ev::Kind::CoreWake, static_cast<std::uint32_t>(i), c.wake_gen});
    }
  }
  dirty_cores_.clear();
}

void Engine::advance_to(Time target) {
  QES_ASSERT(target >= now_ - kTimeEps);
  while (true) {
    // Sub-step end: the earliest segment boundary across cores, capped at
    // the target. Power is constant within the sub-step. Cores outside
    // live_ have no pending segments and zero idle power, so skipping
    // them leaves both the boundary and the power sum (an exact +0.0 per
    // skipped core) unchanged.
    if (!boundary_valid_) {
      next_boundary_ = kNever;
      for (int idx : live_) {
        next_boundary_ = std::min(
            next_boundary_,
            boundary_after(pending_[static_cast<std::size_t>(idx)], now_));
      }
      boundary_valid_ = true;
    }
    const Time step_end = std::min(target, next_boundary_);
    Time next = kNever;  // earliest boundary among the cores not due
    due_.clear();

    if (step_end > now_ + kTimeEps) {
      // The one pass: integrate every live core over [now_, step_end)
      // and sort it into due (sweep below) or not (its next boundary).
      // Locals keep the job-state stores from forcing reloads of now_
      // through possible aliasing; the rare paths (first evaluation of
      // a·s^β, execution recording, tracing) stay out of line so the
      // accumulators live in registers.
      const Time t = now_;
      const Time t_eps = t + kTimeEps;
      const Time dt = step_end - t;
      const bool observe = cfg_.record_execution || cfg_.trace != nullptr;
      PendingSeg* const pending = pending_.data();
      Watts total_power = 0.0;
      Watts idle_w = 0.0;
      int active_n = 0;
      for (int idx : live_) {
        PendingSeg& p = pending[idx];
        if (p.t0 <= t_eps) {
          ++active_n;
          if (p.power_w < 0.0) [[unlikely]] {
            p.power_w = cfg_.power_model.dynamic_power(p.speed);
          }
          const Watts power = p.power_w;
          JobState& js = *p.job;
          total_power += power;
          js.processed += p.speed * dt;
          // Per-job attribution re-groups the run-level sum's terms
          // (same cached a·s^β), so Σ jobs + idle reconciles with the
          // ledger's dynamic energy within fp round-off; the
          // golden-pinned run-level accumulation stays bitwise untouched.
          js.energy_j += joules(power, dt);
          if (observe) [[unlikely]] log_exec(idx, p, t, step_end);
        } else {
          total_power += p.idle_w;
          idle_w += p.idle_w;
        }
        if (due_at(p, step_end)) {
          due_.push_back(idx);
        } else {
          next = std::min(next, boundary_after(p, step_end));
        }
      }
      ledger_.integrate(total_power, idle_w, active_n, dt, cfg_.power_budget);
      now_ = step_end;
    } else {
      // A boundary within kTimeEps of now_: no time passes, the sweep
      // still completes whatever ends here.
      for (int idx : live_) {
        const PendingSeg& p = pending_[static_cast<std::size_t>(idx)];
        if (due_at(p, now_)) {
          due_.push_back(idx);
        } else {
          next = std::min(next, boundary_after(p, now_));
        }
      }
    }

    next_boundary_ = std::min(next, complete_due_cores());
    if (now_ >= target - kTimeEps) break;
  }
  if (target > now_) {
    now_ = target;
    boundary_valid_ = false;  // candidates near now_ may have slid
  }
}

void Engine::log_exec(int core, const PendingSeg& p, Time t0, Time t1) {
  if (cfg_.record_execution) {
    result_.executed[static_cast<std::size_t>(core)].push(
        {t0, t1, p.job->job.id, p.speed});
  }
  if (cfg_.trace != nullptr) {
    cfg_.trace->push({.kind = obs::TraceEvent::Kind::Exec,
                      .t = t0,
                      .job = p.job->job.id,
                      .core = core,
                      .t0 = t0,
                      .t1 = t1,
                      .speed = p.speed});
  }
}

Time Engine::complete_due_cores() {
  Time next = kNever;
  bool left = false;
  for (int idx : due_) {
    CoreRuntime& c = cores_[static_cast<std::size_t>(idx)];
    PendingSeg& p = pending_[static_cast<std::size_t>(idx)];
    if (p.job != nullptr) {
      // Due with a pending segment: it ends by now_, so at least one
      // segment completes here.
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
        } else if (!more_planned && !cfg_.resume_passed_jobs) {
          // The core moves past a partially executed job: discarded due
          // to partial evaluation (paper §IV-B).
          finalize(done.job);
        }
      }
      load_pending(idx);
      mark_dirty(idx);
      next = std::min(next, boundary_after(p, now_));
    }
    if (c.sleep_after && p.job == nullptr) {
      // Race-to-idle payoff: the plan ran out flat-out, park now.
      c.sleep_after = false;
      ledger_.park(c.asleep);
    }
    if (p.job == nullptr && !(p.idle_w > 0.0)) {
      c.in_live = false;
      left = true;
    }
  }
  if (left) {
    // Compact spent cores out of live_, keeping ascending order (the
    // legacy power summation order).
    std::erase_if(live_, [this](int idx) {
      return !cores_[static_cast<std::size_t>(idx)].in_live;
    });
  }
  return next;
}

RunResult Engine::run() {
  if (cfg_.record_execution) {
    result_.executed.resize(cores_.size());
  }
  if (jobs_.empty() && !arrivals_pending()) return std::move(result_);

  next_quantum_ = cfg_.quantum_ms > 0.0
                      ? cfg_.quantum_ms
                      : std::numeric_limits<double>::infinity();

  refresh_events();
  while (!all_finalized()) {
    QES_ASSERT_MSG(!events_.empty(), "event loop stalled with live jobs");
    const auto item = events_.pop();
    const Ev ev = item.value;
    ++events_processed_;

    // Lazy invalidation: run an iteration only if the entry still names
    // its source's CURRENT candidate time — then and only then would the
    // legacy scan-all-sources loop have stopped here, so energy
    // integration splits at exactly the same instants.
    bool valid = false;
    switch (ev.kind) {
      case Ev::Kind::Arrival:
        valid = ev.idx == next_arrival_;
        break;
      case Ev::Kind::Quantum:
        valid = cfg_.quantum_ms > 0.0 && item.t == next_quantum_;
        break;
      case Ev::Kind::Deadline:
        // Deliberately no finalized check: the legacy loop also stops at
        // the stale deadline of a policy-discarded job still at
        // first_live_ (expiry advances past it only afterwards).
        valid = ev.idx == first_live_ && first_live_ < next_arrival_;
        break;
      case Ev::Kind::BudgetStep:
        valid = ev.idx == next_budget_step_;
        break;
      case Ev::Kind::CoreWake: {
        CoreRuntime& c = cores_[static_cast<std::size_t>(ev.core)];
        const PendingSeg& p = pending_[ev.core];
        if (ev.idx != c.wake_gen) break;  // superseded by a re-arm
        if (p.job == nullptr) break;      // plan exhausted
        const Time cand = boundary_after(p, now_);
        if (cand != item.t) {
          // The boundary slid from segment start to segment end (now_
          // crossed t0 without touching this core): re-arm at the
          // current candidate without running an iteration.
          ++c.wake_gen;
          events_.push(cand, Ev{Ev::Kind::CoreWake, ev.core, c.wake_gen});
          break;
        }
        valid = true;
        mark_dirty(static_cast<int>(ev.core));  // re-arm after this body
        break;
      }
    }
    if (!valid) continue;

    advance_to(std::max(item.t, now_));

    // Arrivals at the current time.
    if (stream_ != nullptr) {
      while (pending_arrival_ && pending_arrival_->release <= now_ + kTimeEps) {
        admit_streamed_arrival();
      }
    } else {
      while (next_arrival_ < jobs_.size() &&
             jobs_[next_arrival_].job.release <= now_ + kTimeEps) {
        waiting_.push_back(jobs_[next_arrival_].job.id);
        if (cfg_.trace != nullptr) {
          cfg_.trace->push({.kind = obs::TraceEvent::Kind::Release,
                            .t = now_,
                            .job = jobs_[next_arrival_].job.id});
        }
        ++next_arrival_;
      }
    }

    expire_due_jobs();
    // advance_to reads the jobs that stale plan segments name, so the
    // store keeps them resident below first_live_.
    if (!cfg_.record_job_states) {
      jobs_.reclaim_dead_prefix(first_live_, cores_, cfg_.quality);
    }

    bool replan = false;

    // Scheduled budget changes take effect before the triggers so the
    // forced replan plans against the new H.
    while (next_budget_step_ < cfg_.budget_steps.size() &&
           cfg_.budget_steps[next_budget_step_].at <= now_ + kTimeEps) {
      cfg_.power_budget = cfg_.budget_steps[next_budget_step_].budget;
      ++next_budget_step_;
      replan = true;
    }

    // Grouped-scheduling triggers (§IV-E).
    if (cfg_.quantum_ms > 0.0 && now_ >= next_quantum_ - kTimeEps) {
      while (next_quantum_ <= now_ + kTimeEps) next_quantum_ += cfg_.quantum_ms;
      replan = true;
    }
    if (cfg_.counter_trigger > 0 &&
        waiting_.size() >= static_cast<std::size_t>(cfg_.counter_trigger)) {
      replan = true;
    }
    if (cfg_.idle_trigger && !waiting_.empty()) {
      for (int i = 0; i < cfg_.cores; ++i) {
        if (core_idle(i)) {
          replan = true;
          break;
        }
      }
    }

    if (replan) {
      ++replan_count_;
      if (cfg_.record_replan_times) result_.replan_times.push_back(now_);
      if (cfg_.trace != nullptr) {
        cfg_.trace->push({.kind = obs::TraceEvent::Kind::Replan,
                          .t = now_,
                          .value = static_cast<double>(waiting_.size())});
      }
      policy_->replan(*this);
    }

    refresh_events();
  }

  // Keep integrating idle power to the last deadline: the paper's energy
  // runs from r_1 to d_n (matters for No-DVFS, whose cores never sleep).
  advance_to(final_deadline_);

  // End-of-run aggregation, shared with the runtime (src/obs/). Jobs are
  // fed in id order — streaming runs have already fed (and possibly
  // released) a prefix; the order and arithmetic are the same either
  // way, so registry-mirrored histogram totals reconcile exactly with
  // the RunStats aggregates and streamed stats match vector-mode stats
  // bit for bit.
  jobs_.feed_upto(jobs_.size(), cfg_.quality);
  result_.stats =
      ledger_.finish(jobs_.accumulator(), final_deadline_, replan_count_);
  if (cfg_.record_job_states) {
    // Copy out chunk by chunk, releasing behind the cursor so peak RSS
    // carries one extra chunk, not a second full copy of the table.
    result_.jobs.reserve(jobs_.size());
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      result_.jobs.push_back(std::move(jobs_[i]));
      if (((i + 1) & obs::JobStore::Arena::kChunkMask) == 0) {
        jobs_.release_before(i + 1);
      }
    }
  }
  return std::move(result_);
}

}  // namespace qes
