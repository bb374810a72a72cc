#include "policy/des_planner.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>

#include "core/assert.hpp"
#include "sched/quality_opt.hpp"
#include "sched/weighted_quality.hpp"
#include "sched/yds.hpp"

namespace qes::policy {

DesPlanner::DesPlanner(obs::Registry* registry, const std::string& plane)
    : profiler_(registry, kReplanPhaseMetric, kReplanPhaseHelp,
                plane.empty()
                    ? std::vector<std::pair<std::string, std::string>>{}
                    : std::vector<std::pair<std::string, std::string>>{
                          {"plane", plane}}) {
  crr_hist_ = profiler_.phase_histogram("crr");
  yds_hist_ = profiler_.phase_histogram("yds");
  wf_hist_ = profiler_.phase_histogram("wf");
  online_qe_hist_ = profiler_.phase_histogram("online_qe");
}

void DesPlanner::canonicalize(WorldView& view) {
  const auto by_deadline_then_id = [](const ViewJob& a, const ViewJob& b) {
    if (a.deadline != b.deadline) return a.deadline < b.deadline;
    return a.id < b.id;
  };
  for (CoreView& core : view.cores) {
    // Every plane already hands its lists over in this order; ids are
    // unique, so a sorted list is the one order std::sort could return.
    if (!std::is_sorted(core.jobs.begin(), core.jobs.end(),
                        by_deadline_then_id)) {
      std::sort(core.jobs.begin(), core.jobs.end(), by_deadline_then_id);
    }
  }
}

namespace {

bool same_bits(double x, double y) {
  return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
}

}  // namespace

const BudgetFree& DesPlanner::budget_free_core_into(const WorldView& view,
                                                    std::size_t core) {
  QES_ASSERT(view.power_model != nullptr && core < view.cores.size());
  if (free_plans_.size() != view.cores.size()) {
    // A core-count change starts every slot afresh: no key survives into
    // a view whose cores it may not describe. (A default slot is
    // consistent: its all-zero, job-less key is an input whose step 2
    // is the default BudgetFree.)
    free_plans_.assign(view.cores.size(), BudgetFree{});
    step2_keys_.assign(view.cores.size(), Step2Key{});
    stretch_energy_.assign(view.cores.size(), std::nullopt);
  }
  // Budget-free per-core YDS (DES step 2): remaining demands, all
  // released now. Yields the plan, its power request at `now`, and its
  // top speed.
  //
  // The memo key is every input step 2 reads: the bits of `now`, of the
  // power model's a and beta (dynamic_power's only fields), and of each
  // (id, deadline, remaining) handed to YDS, in view order. Step 2 reads
  // nothing else — not speed_cap, weight or partial_ok — and a read of
  // any other field must grow this key. The key is written through while
  // it is compared, so a miss leaves the new key (the YDS input list)
  // in place without a second pass.
  const Time now = view.now;
  const PowerModel& pm = *view.power_model;
  Step2Key& key = step2_keys_[core];
  bool hit = same_bits(key.now, now) && same_bits(key.a, pm.a) &&
             same_bits(key.beta, pm.beta);
  key.now = now;
  key.a = pm.a;
  key.beta = pm.beta;
  std::vector<Job>& jobs = key.jobs;
  std::size_t n = 0;
  for (const ViewJob& vj : view.cores[core].jobs) {
    const Work remaining = vj.demand - vj.processed;
    if (remaining <= kTimeEps) continue;
    if (n == jobs.size()) {
      hit = false;
      jobs.emplace_back();
    }
    // Field by field: a whole-Job copy goes through a stack temporary
    // whose wide reloads stall on store forwarding, once per job.
    Job& k = jobs[n++];
    hit = hit && k.id == vj.id && same_bits(k.deadline, vj.deadline) &&
          same_bits(k.demand, remaining);
    k.id = vj.id;
    k.release = now;
    k.deadline = vj.deadline;
    k.demand = remaining;
  }
  hit = hit && n == jobs.size();
  jobs.resize(n);

  BudgetFree& out = free_plans_[core];
  if (hit) return out;
  stretch_energy_[core].reset();
  out.plan.clear();
  out.power_at_now = 0.0;
  out.max_speed = 0.0;
  if (jobs.empty()) return out;
  // Every release is `now`, so a canonical view's (deadline, id) order is
  // already the kernel's: the sort is one O(n) check. A view that skipped
  // canonicalize (power_request's) is sorted here, and misses the memo.
  sort_by_release(jobs);
  yds_schedule_into(jobs, yds_scratch_, yds_out_);
  out.max_speed = yds_out_.critical_speed;
  out.power_at_now = pm.dynamic_power(yds_out_.schedule.speed_at(now));
  out.plan = yds_out_.schedule;
  return out;
}

BudgetFree DesPlanner::budget_free(const WorldView& view, std::size_t core) {
  return budget_free_core_into(view, core);
}

Watts DesPlanner::total_power_request(const WorldView& view) {
  Watts total = 0.0;
  for (std::size_t i = 0; i < view.cores.size(); ++i) {
    total += budget_free_core_into(view, i).power_at_now;
  }
  return total;
}

// Fixed-speed planning used by the No-DVFS and S-DVFS variants: run
// Quality-OPT (with the running job's release rewound exactly as in
// Online-QE step 1) and lay the granted volumes out FIFO from `now`.
void DesPlanner::fixed_speed_plan_into(const CoreView& core, Time now,
                                       Speed speed, bool baseline_mode,
                                       CorePlan& out) {
  out.plan.clear();
  out.planned.clear();
  if (speed <= kTimeEps || core.jobs.empty()) return;

  std::vector<Job>& adjusted = jobs_tmp_;
  adjusted.clear();
  adjusted.reserve(core.jobs.size());
  baselines_.clear();
  bool first = true;
  for (const ViewJob& vj : core.jobs) {
    QES_ASSERT(vj.deadline > now + kTimeEps);
    Job j{.id = vj.id,
          .release = now,
          .deadline = vj.deadline,
          .demand = vj.demand};
    if (!baseline_mode && first && vj.processed > kTimeEps) {
      j.release = now - vj.processed / speed;
    }
    first = false;
    baselines_.push_back(vj.processed);
    adjusted.push_back(j);
  }
  // Canonical view order, every release at `now` but the head's, which
  // only rewinds: the kernel's order, with baselines_ aligned to it.
  quality_opt_into(adjusted, speed,
                   baseline_mode ? std::span<const Work>(baselines_)
                                 : std::span<const Work>{},
                   qopt_scratch_, qopt_out_);
  const QualityOptResult& q = qopt_out_;

  Time t = now;
  for (std::size_t k = 0; k < adjusted.size(); ++k) {
    const Job& j = adjusted[k];
    Work rem = q.volumes[k];
    if (j.release < now - kTimeEps) {
      rem -= (now - j.release) * speed;  // running job's prior volume
    }
    if (rem <= kTimeEps) continue;
    const Time finish = t + rem / speed;
    QES_ASSERT_MSG(approx_le(finish, j.deadline, kPlanSlackEps),
                   "fixed-speed plan must meet deadlines");
    out.plan.push({t, finish, j.id, speed});
    out.planned[j.id] = rem;
    t = finish;
  }
}

// Re-time granted volumes flat-out at the core's max speed (the eager
// ablation): jobs only finish earlier than in the stretched plan, so
// deadlines keep holding.
void DesPlanner::eager_timetable_into(const CoreView& core, Time now,
                                      const FlatVolumeMap& planned,
                                      Speed max_speed, Schedule& out) {
  out.clear();
  Time t = now;
  for (const ViewJob& vj : core.jobs) {
    const auto it = planned.find(vj.id);
    if (it == planned.end() || it->second <= kTimeEps) continue;
    const Time finish = t + it->second / max_speed;
    QES_ASSERT_MSG(approx_le(finish, vj.deadline, kPlanSlackEps),
                   "eager timetable must meet deadlines");
    out.push({t, finish, vj.id, max_speed});
    t = finish;
  }
}

// Race-to-idle vs. stretch (Bampis et al., arXiv:1111.3398). The
// stretched plan keeps the core awake (static draw b) until its last
// segment ends; racing the same granted volumes flat-out at `race_cap`
// finishes earlier and parks the core in the sleep C-state for the gap.
// Racing costs extra dynamic energy (P(s) is convex, so dyn_race >=
// dyn_stretch) plus one wake transition; it saves (b - sleep_power)
// over the gap. The race is taken only when the saving strictly beats
// the cost — in particular it is NEVER taken when the wake energy alone
// exceeds the idle-interval saving (the break-even test), which the
// power-label property suite asserts.
template <typename RaceCap>
void DesPlanner::maybe_race_to_idle(const PlanOptions& opt,
                                    const PowerModel& pm, Time now,
                                    RaceCap race_cap, Speed critical_speed,
                                    std::optional<Joules>* stretch_memo,
                                    CoreOutcome& out) {
  if (!opt.race_to_idle || !pm.has_sleep()) return;
  const auto& segs = out.plan.segments();
  if (segs.empty()) return;
  Speed top = 0.0;
  Work volume = 0.0;
  for (const Segment& s : segs) {
    top = std::max(top, s.speed);
    volume += s.volume();
  }
  // The race runs at the energy-optimal critical speed s* (see
  // PowerModel::critical_speed), clamped into [top, race_cap]: racing
  // above s* burns convex dynamic energy the slept gap cannot pay back
  // (and makes the decision lose globally when an arrival truncates the
  // sleep), while racing below the plan's own top speed would stretch
  // it instead — if the clamp leaves no headroom over `top` there is
  // nothing to race. With s* <= top + kTimeEps the clamp leaves none
  // whatever the cap, so only a core past that exit evaluates its cap.
  if (critical_speed <= top + kTimeEps || volume <= kTimeEps) return;
  const Speed race_speed = std::min(race_cap(), std::max(top, critical_speed));
  if (race_speed <= top + kTimeEps) return;
  const Time race_end = now + volume / race_speed;
  const Time gap_ms = segs.back().t1 - race_end;
  // The gap must amortize the wake transition: longer than both the
  // wake latency and the break-even interval derived from the wake
  // energy (1000 * wake_energy_j / (b - sleep_power) ms).
  if (gap_ms <= pm.wake_latency_ms || gap_ms <= pm.sleep_break_even_ms()) {
    return;
  }
  // Only a core past the cheap exits pays one pow per segment for the
  // stretched plan's dynamic energy, and only once per step-2 plan when
  // `out.plan` is one (the fast path hands its slot in `stretch_memo`).
  Joules dyn_stretch = 0.0;
  if (stretch_memo != nullptr && stretch_memo->has_value()) {
    dyn_stretch = **stretch_memo;
  } else {
    for (const Segment& s : segs) {
      dyn_stretch += pm.dynamic_energy(s.speed, s.t1 - s.t0);
    }
    if (stretch_memo != nullptr) *stretch_memo = dyn_stretch;
  }
  // Cores race at few distinct speeds (s* or a shared cap), so the last
  // race speed's a·s^β is kept, keyed on every bit dynamic_power reads.
  const Watts race_power =
      race_power_.get({race_speed, pm.a, pm.beta},
                      [&] { return pm.dynamic_power(race_speed); });
  const Joules dyn_race = joules(race_power, race_end - now);
  const Joules sleep_saving =
      joules(pm.b - pm.sleep_power, gap_ms) - pm.wake_energy_j;
  if (sleep_saving <= dyn_race - dyn_stretch) return;
  // Race wins: re-time the stretched segments flat-out at race_speed
  // (the segment order is preserved, race_speed >= every segment speed,
  // so every volume only finishes earlier and deadlines keep holding)
  // and park the core after the last one.
  sched_tmp_.clear();
  Time t = now;
  for (const Segment& s : segs) {
    const Time dur = s.volume() / race_speed;
    sched_tmp_.push({t, t + dur, s.job, race_speed});
    t += dur;
  }
  out.plan = sched_tmp_;
  out.sleep_after = true;
}

// Budget-bounded planning for one core (DES step 4). In the paper's
// execution model this is Online-QE; in the resume ablation the
// baseline-aware Quality-OPT + YDS pair replaces it so previously served
// non-running jobs keep their credit.
void DesPlanner::budget_bounded_plan_into(const CoreView& core, Time now,
                                          Speed max_speed, bool eager,
                                          bool baseline_mode, CorePlan& out) {
  out.plan.clear();
  out.planned.clear();
  if (max_speed <= kTimeEps) return;

  // The paper's Online-QE rewinds the running job's release, which
  // requires the earliest-deadline job to be the one with prior volume.
  // Rebalancing and the resume ablation can violate that, so they use
  // the baseline-aware Quality-OPT + YDS pair instead.
  if (!baseline_mode) {
    ready_.clear();
    bool first = true;
    for (const ViewJob& vj : core.jobs) {
      QES_ASSERT(vj.deadline > now + kTimeEps);
      ready_.push_back(ReadyJob{.id = vj.id,
                                .deadline = vj.deadline,
                                .demand = vj.demand,
                                .processed = vj.processed,
                                .running = first && vj.processed > kTimeEps});
      first = false;
    }
    online_qe_into(now, ready_, max_speed, oqe_scratch_, oqe_out_);
    out.plan = oqe_out_.schedule;
    out.planned = oqe_out_.planned;
    if (eager) {
      eager_timetable_into(core, now, out.planned, max_speed, out.plan);
    }
    return;
  }

  // Baseline mode: every job may carry prior volume as a baseline.
  std::vector<Job>& jobs = jobs_tmp_;
  jobs.clear();
  jobs.reserve(core.jobs.size());
  baselines_.clear();
  for (const ViewJob& vj : core.jobs) {
    jobs.push_back(Job{.id = vj.id,
                       .release = now,
                       .deadline = vj.deadline,
                       .demand = vj.demand});
    baselines_.push_back(vj.processed);
  }
  if (jobs.empty()) return;
  // Canonical view order at one release: the kernels' order, with
  // baselines_ aligned to it; step2 keeps it.
  quality_opt_into(jobs, max_speed, baselines_, qopt_scratch_, qopt_out_);
  const QualityOptResult& q = qopt_out_;

  std::vector<Job>& step2 = jobs_tmp2_;
  step2.clear();
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    if (q.volumes[k] <= kTimeEps) continue;
    Job j = jobs[k];
    j.demand = q.volumes[k];
    out.planned[j.id] = q.volumes[k];
    step2.push_back(j);
  }
  if (step2.empty()) return;
  yds_schedule_capped_into(step2, max_speed, yds_scratch_, yds_out_);
  out.plan = yds_out_.schedule;
  for (auto& [id, planned] : out.planned) {
    planned = std::min(planned, out.plan.volume_of(id));
  }
}

// Weighted budget-bounded planning (extension): allocate volumes by
// weighted quality (baseline-aware, so mid-queue prior volume is fine),
// then YDS the granted volumes.
void DesPlanner::weighted_budget_bounded_plan_into(
    const CoreView& core, Time now, const QualityFunction& quality,
    Speed max_speed, bool eager, CorePlan& out) {
  out.plan.clear();
  out.planned.clear();
  if (max_speed <= kTimeEps || core.jobs.empty()) return;
  // With every release at `now` the canonical view order is the kernels'
  // (release, deadline, id) order, so weights and baselines align by index.
  std::vector<Job>& jobs = jobs_tmp_;
  jobs.clear();
  jobs.reserve(core.jobs.size());
  weights_.clear();
  baselines_.clear();
  for (const ViewJob& vj : core.jobs) {
    jobs.push_back(Job{.id = vj.id,
                       .release = now,
                       .deadline = vj.deadline,
                       .demand = vj.demand,
                       .weight = vj.weight});
    weights_.push_back(vj.weight);
    baselines_.push_back(vj.processed);
  }
  const auto q = weighted_quality_opt_schedule(jobs, max_speed, weights_,
                                               quality, baselines_);

  std::vector<Job>& step2 = jobs_tmp2_;
  step2.clear();
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    if (q.volumes[k] <= kTimeEps) continue;
    Job j = jobs[k];
    j.demand = q.volumes[k];
    out.planned[j.id] = q.volumes[k];
    step2.push_back(j);
  }
  if (step2.empty()) return;
  if (eager) {
    eager_timetable_into(core, now, out.planned, max_speed, out.plan);
    return;
  }
  yds_schedule_capped_into(step2, max_speed, yds_scratch_, yds_out_);
  out.plan = yds_out_.schedule;
  for (auto& [id, planned] : out.planned) {
    planned = std::min(planned, out.plan.volume_of(id));
  }
}

// Re-time a plan onto discrete speed levels: each segment's volume runs
// at the snapped-up level (never above `cap`, itself a level), packed
// back-to-back from `now`. Jobs only finish earlier, so deadlines hold.
void DesPlanner::quantize_plan_into(const Schedule& plan, Time now,
                                    const DiscreteSpeedSet& levels, Speed cap,
                                    Schedule& out) {
  out.clear();
  Time t = now;
  for (const Segment& s : plan.segments()) {
    const auto snapped = levels.snap_up(s.speed);
    QES_ASSERT_MSG(snapped && *snapped <= cap + kTimeEps,
                   "quantized speed must stay within the rectified level");
    const Time dur = s.volume() / *snapped;
    out.push({t, t + dur, s.job, *snapped});
    t += dur;
  }
}

template <typename MakePlan>
void DesPlanner::install_with_rigid_check(CoreView& core,
                                          const PlanOptions& opt,
                                          MakePlan make_plan,
                                          CoreOutcome& out) {
  for (;;) {
    const CorePlan& p = make_plan();
    JobId to_discard = 0;
    std::size_t discard_at = 0;
    for (std::size_t k = 0; k < core.jobs.size(); ++k) {
      const ViewJob& vj = core.jobs[k];
      if (vj.partial_ok) continue;
      const auto it = p.planned.find(vj.id);
      const Work planned = it == p.planned.end() ? 0.0 : it->second;
      if (vj.processed + planned + kRigidVolumeEps < vj.demand) {
        to_discard = vj.id;
        discard_at = k;
        break;
      }
    }
    if (to_discard == 0) {
      // A partially executed job granted no further volume has been
      // dropped from the ready set by Online-QE (its fair share is
      // already met); under the paper's execution model it is discarded
      // now and never resumed.
      if (!opt.resume_passed_jobs) {
        for (const ViewJob& vj : core.jobs) {
          if (vj.processed > kTimeEps && !p.planned.count(vj.id)) {
            out.passed_over.push_back(vj.id);
          }
        }
        std::erase_if(core.jobs, [&](const ViewJob& vj) {
          return vj.processed > kTimeEps && !p.planned.count(vj.id);
        });
      }
      out.plan = p.plan;
      return;
    }
    out.rigid_discards.push_back(to_discard);
    core.jobs.erase(core.jobs.begin() +
                    static_cast<std::ptrdiff_t>(discard_at));
  }
}

void DesPlanner::plan_no_dvfs(WorldView& view, const PlanOptions& opt,
                              PlanOutcome& out) {
  QES_ASSERT(view.power_model != nullptr && !view.cores.empty());
  canonicalize(view);
  last_reads_ = FastPathReads{};
  const PowerModel& pm = *view.power_model;
  const std::size_t m = view.cores.size();
  out.reset(m);
  const Speed share =
      pm.speed_for_dynamic_power(view.power_budget / static_cast<double>(m));
  for (std::size_t i = 0; i < m; ++i) {
    const Speed s0 = std::min(share, view.cores[i].speed_cap);
    install_with_rigid_check(
        view.cores[i], opt,
        [&, i]() -> const CorePlan& {
          fixed_speed_plan_into(view.cores[i], view.now, s0,
                                opt.baseline_mode, plan_tmp_);
          return plan_tmp_;
        },
        out.cores[i]);
    out.cores[i].idle_power = pm.dynamic_power(s0);
  }
}

void DesPlanner::plan_s_dvfs(WorldView& view, const PlanOptions& opt,
                             PlanOutcome& out) {
  QES_ASSERT(view.power_model != nullptr && !view.cores.empty());
  canonicalize(view);
  last_reads_ = FastPathReads{};
  const PowerModel& pm = *view.power_model;
  const std::size_t m = view.cores.size();
  out.reset(m);
  // Step 2 with the chip-wide constraint: every core is granted the
  // hungriest core's request, clamped to the equal share H/m.
  Watts max_request = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    max_request =
        std::max(max_request, budget_free_core_into(view, i).power_at_now);
  }
  const Watts common =
      std::min(max_request, view.power_budget / static_cast<double>(m));
  for (std::size_t i = 0; i < m; ++i) {
    const Speed sc =
        std::min(pm.speed_for_dynamic_power(common), view.cores[i].speed_cap);
    install_with_rigid_check(
        view.cores[i], opt,
        [&, i]() -> const CorePlan& {
          fixed_speed_plan_into(view.cores[i], view.now, sc,
                                opt.baseline_mode, plan_tmp_);
          return plan_tmp_;
        },
        out.cores[i]);
    // DVFS-capable cores draw no dynamic power while idle (clock
    // gating): only executing cores are charged at the common speed.
    out.cores[i].idle_power = 0.0;
  }
}

bool DesPlanner::last_outcome_holds(Watts budget) const {
  const FastPathReads& r = last_reads_;
  // The fast path's test reads H only through total_request; its top
  // speed test reads no H.
  if (!r.fast || !(r.total_request <= budget + kTimeEps)) return false;
  if (!r.cap_read) return true;
  const Watts share = budget / static_cast<double>(r.cores);
  return r.share >= r.share_floor && share >= r.share_floor;
}

void DesPlanner::plan_c_dvfs(WorldView& view, const PlanOptions& opt,
                             PlanOutcome& out) {
  QES_ASSERT(view.power_model != nullptr && !view.cores.empty());
  canonicalize(view);
  last_reads_ = FastPathReads{};
  const PowerModel& pm = *view.power_model;
  const std::size_t m = view.cores.size();
  out.reset(m);

  // Step 2: budget-free YDS per core.
  Watts total_request = 0.0;
  Speed top_speed = 0.0;
  {
    obs::PhaseProfiler::Scope timer(profile_this_ ? yds_hist_ : nullptr);
    for (std::size_t i = 0; i < m; ++i) {
      const BudgetFree& f = budget_free_core_into(view, i);
      total_request += f.power_at_now;
      top_speed = std::max(top_speed, f.max_speed);
    }
  }

  const bool continuous = opt.speed_levels == nullptr;
  Speed min_core_cap = std::numeric_limits<double>::infinity();
  for (const CoreView& core : view.cores) {
    min_core_cap = std::min(min_core_cap, core.speed_cap);
  }
  // Race-to-idle is live only with a sleep state configured; the guard
  // keeps the b=0 pipelines (and their allocations) bitwise untouched.
  const bool race = opt.race_to_idle && pm.has_sleep() && continuous;
  const Critical critical =
      race ? critical_.get({pm.a, pm.beta, pm.b, pm.sleep_power},
                           [&] {
                             const Speed s = pm.critical_speed();
                             return Critical{s, pm.dynamic_power(s)};
                           })
           : Critical{};

  if (continuous && !opt.static_power && !opt.eager_execution &&
      total_request <= view.power_budget + kTimeEps &&
      top_speed <= min_core_cap + kTimeEps) {
    // The optimistic schedules fit the budget: everyone completes.
    obs::PhaseProfiler::Scope timer(profile_this_ ? online_qe_hist_ : nullptr);
    // On the fast path no per-core budget was derived; racing at the
    // equal share H/m keeps the worst-case aggregate within H.
    const Watts share = view.power_budget / static_cast<double>(m);
    last_reads_ = {.fast = true,
                   .total_request = total_request,
                   .cores = m,
                   .share = share,
                   .share_floor = critical.power * (1.0 + kRaceShareMargin)};
    for (std::size_t i = 0; i < m; ++i) {
      out.cores[i].plan = free_plans_[i].plan;
      if (race) {
        const auto cap = [&] {
          last_reads_.cap_read = true;
          // Past the margin the share cap is above s*, and the race runs
          // at min(speed cap, s*) whatever it is: skip its pow.
          if (share >= last_reads_.share_floor) return view.cores[i].speed_cap;
          return std::min(
              share_cap_.get({share, pm.a, pm.beta},
                             [&] { return pm.speed_for_dynamic_power(share); }),
              view.cores[i].speed_cap);
        };
        maybe_race_to_idle(opt, pm, view.now, cap, critical.speed,
                           &stretch_energy_[i], out.cores[i]);
      }
    }
    return;
  }

  // Step 3: power distribution. (Scope via optional so the WF timer
  // closes before step 4's timer opens, without re-nesting the code.)
  std::optional<obs::PhaseProfiler::Scope> timer;
  timer.emplace(profile_this_ ? wf_hist_ : nullptr);
  if (opt.static_power) {
    budgets_.assign(m, view.power_budget / static_cast<double>(m));
  } else {
    requests_.clear();
    for (const BudgetFree& f : free_plans_) {
      requests_.push_back(f.power_at_now);
    }
    waterfill_power_into(requests_, view.power_budget, wfp_scratch_, budgets_);
    if (opt.eager_execution) {
      // Requests reflect the energy-stretched plans; eager execution
      // wants to finish early, so hand the WF surplus to the active
      // cores in equal shares (the total stays within H).
      Watts assigned = 0.0;
      std::size_t active = 0;
      for (std::size_t i = 0; i < m; ++i) {
        assigned += budgets_[i];
        if (!view.cores[i].jobs.empty()) ++active;
      }
      if (active > 0 && view.power_budget > assigned + kTimeEps) {
        const Watts bonus =
            (view.power_budget - assigned) / static_cast<double>(active);
        for (std::size_t i = 0; i < m; ++i) {
          if (!view.cores[i].jobs.empty()) budgets_[i] += bonus;
        }
      }
    }
  }

  // Step 4: budget-bounded per-core planning.
  timer.emplace(profile_this_ ? online_qe_hist_ : nullptr);
  if (continuous) {
    for (std::size_t i = 0; i < m; ++i) {
      const Speed cap = std::min(pm.speed_for_dynamic_power(budgets_[i]),
                                 view.cores[i].speed_cap);
      install_with_rigid_check(
          view.cores[i], opt,
          [&, i]() -> const CorePlan& {
            if (opt.weighted) {
              weighted_budget_bounded_plan_into(view.cores[i], view.now,
                                                *view.quality, cap,
                                                opt.eager_execution,
                                                plan_tmp_);
            } else {
              budget_bounded_plan_into(view.cores[i], view.now, cap,
                                       opt.eager_execution, opt.baseline_mode,
                                       plan_tmp_);
            }
            return plan_tmp_;
          },
          out.cores[i]);
      if (race) {
        maybe_race_to_idle(opt, pm, view.now, [cap] { return cap; },
                           critical.speed, nullptr, out.cores[i]);
      }
    }
    return;
  }

  // Discrete scaling (§V-F): rectify the WF speeds onto the level set,
  // plan under the rectified cap, then re-time segments onto levels.
  // (Race-to-idle stays a continuous-path decision: the race timetable
  // would need its own rectification round to stay on the level set.)
  const DiscreteSpeedSet& levels = *opt.speed_levels;
  speeds_.clear();
  for (std::size_t i = 0; i < m; ++i) {
    speeds_.push_back(
        std::min(pm.speed_for_dynamic_power(budgets_[i]),
                 std::min(view.cores[i].speed_cap, levels.max_speed())));
  }
  const auto rectified =
      rectify_speeds_discrete(speeds_, view.power_budget, levels, pm);
  for (std::size_t i = 0; i < m; ++i) {
    const auto cap = rectified[i];
    if (!cap) {
      // out.cores[i] stays the empty plan: the core idles this round.
      continue;
    }
    install_with_rigid_check(
        view.cores[i], opt,
        [&, i, cap]() -> const CorePlan& {
          budget_bounded_plan_into(view.cores[i], view.now, *cap,
                                   opt.eager_execution, opt.baseline_mode,
                                   plan_tmp_);
          quantize_plan_into(plan_tmp_.plan, view.now, levels, *cap,
                             sched_tmp_);
          plan_tmp_.plan = sched_tmp_;
          return plan_tmp_;
        },
        out.cores[i]);
  }
}

}  // namespace qes::policy
