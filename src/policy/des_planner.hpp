// DesPlanner: the single, engine-agnostic DES planner kernel.
//
// The paper's multicore heuristic (§IV: C-RR job distribution,
// budget-free per-core YDS, water-filling power distribution,
// budget-bounded per-core Online-QE; §V-A No-DVFS / S-DVFS variants;
// §V-D rigid-job discard loop; §V-F discrete rectification) used to be
// implemented twice — once against sim::Engine and once against the live
// runtime state. It now lives here exactly once, planning against the
// engine-agnostic WorldView snapshot; the simulator policy, the qesd
// runtime, and the cluster lockstep are thin adapters that build a view,
// invoke one of the plan_* pipelines, and apply the PlanOutcome back to
// their own state (see docs/ARCHITECTURE.md).
//
// The planner owns reusable scratch buffers for the whole pipeline —
// snapshot handling AND the single-core sub-algorithms (YDS,
// Quality-OPT, Online-QE run through their *_into scratch variants) —
// so a steady-state replan on the paper's continuous path performs zero
// heap allocations (bench/replan_kernel and bench/sim_event_core gate
// this).
//
// Step-2 reuse. DES step 2 (budget-free per-core YDS) is memoized per
// core index. The key is every input step 2 reads: the bit patterns of
// `now`, of the power model's a and beta, and of each (id, deadline,
// remaining demand) it hands to YDS, in view order. Step 2 is a pure
// function of that key, so a call whose key matches the last one for
// its core returns the stored BudgetFree without building the job set
// or running YDS — bit for bit what a recomputation would give. The
// memo hits where a core's inputs repeat at one instant: the cluster
// broker asks each node for its power request (total_power_request)
// and then forces a replan at the same instant, whose plan_c_dvfs finds
// step 2 already done for every core C-RR did not touch; and broker
// ticks on a node whose clock has not moved. It never hits in sim::Engine
// or in qesd, where every replan has a new `now`; there a miss costs
// only the writes of the new key on top of the computation. Next to each
// slot sits the step-2 plan's stretched dynamic energy, priced by the
// first fast-path race-to-idle check that needs it and emptied by every
// miss, so it is only ever read for the plan it was priced from.
//
// Phase timings for every pipeline stage go to the unified histogram
// family `qes_replan_phase_ms{plane=...,phase=...}` — one family for all
// planes, distinguished by the `plane` label passed at construction.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/flat_map.hpp"
#include "core/schedule.hpp"
#include "obs/phase_profiler.hpp"
#include "policy/power_waterfill.hpp"
#include "policy/world_view.hpp"
#include "sched/online_qe.hpp"

namespace qes::obs {
class Registry;
}  // namespace qes::obs

namespace qes::policy {

/// Unified replan-phase histogram family shared by every plane
/// (plane="sim" | "runtime" | "cluster").
inline constexpr const char kReplanPhaseMetric[] = "qes_replan_phase_ms";
inline constexpr const char kReplanPhaseHelp[] =
    "wall time per DES replan phase (ms)";

/// Pipeline variants. The defaults are the paper's execution model on
/// continuous C-DVFS — exactly what the runtime plane serves.
struct PlanOptions {
  /// Discrete speed levels (§V-F); nullptr = continuous scaling. Not
  /// owned; must outlive the planning call.
  const DiscreteSpeedSet* speed_levels = nullptr;
  /// Replace WF with static equal power sharing (ablation).
  bool static_power = false;
  /// Allocate per-core volumes by WEIGHTED quality (service classes);
  /// requires WorldView::quality. Implies baseline-aware planning.
  bool weighted = false;
  /// Skip Online-QE's energy stretch: run granted volumes flat-out.
  bool eager_execution = false;
  /// Baseline-aware planning (Quality-OPT + YDS instead of Online-QE):
  /// required when mid-queue jobs may carry prior volume, i.e. under the
  /// resume ablation or rebalancing.
  bool baseline_mode = false;
  /// Keep partially executed, passed-over jobs alive (ablation; the
  /// paper's model discards them — see CoreOutcome::passed_over).
  bool resume_passed_jobs = false;
  /// Race-to-idle vs. stretch (Bampis et al., arXiv:1111.3398): when the
  /// power model has a sleep state, compare E(stretch to deadline) with
  /// E(race at the core's granted cap + park in the sleep state) per
  /// core and pick the cheaper side; the loser of the break-even test
  /// (wake cost vs. idle-interval saving) is never chosen. Inert unless
  /// PowerModel::has_sleep() — the b=0 pipelines are bitwise untouched.
  bool race_to_idle = true;
};

/// Per-core planning result. Consumers must apply it in this order:
/// finalize `rigid_discards` front to back, then `passed_over` front to
/// back, then install `plan` (and `idle_power` where the engine models
/// idle draw) — that reproduces the legacy in-place sequence bitwise.
struct CoreOutcome {
  Schedule plan;
  Watts idle_power = 0.0;
  /// Race-to-idle verdict: the core should park in the sleep C-state
  /// once `plan` is exhausted (the plan has already been re-timed to
  /// run flat-out at the granted cap). Engines wake a parked core —
  /// charging PowerModel::wake_energy_j — only when a later replan
  /// installs a non-empty plan on it. Always false without a sleep
  /// state.
  bool sleep_after = false;
  /// Rigid jobs the §V-D loop discarded, in discard order.
  std::vector<JobId> rigid_discards;
  /// Partially executed jobs the final plan passes over (fair share
  /// already met; the paper's model never resumes them). Empty when
  /// PlanOptions::resume_passed_jobs is set.
  std::vector<JobId> passed_over;
};

struct PlanOutcome {
  std::vector<CoreOutcome> cores;

  /// Clears per-core results, keeping capacity.
  void reset(std::size_t core_count) {
    if (cores.size() != core_count) cores.resize(core_count);
    for (CoreOutcome& c : cores) {
      c.plan.clear();
      c.idle_power = 0.0;
      c.sleep_after = false;
      c.rigid_discards.clear();
      c.passed_over.clear();
    }
  }
};

/// Budget-free per-core YDS result (DES step 2): the plan assuming
/// unlimited power, its instantaneous power request at `now`, and its
/// top speed. Also the node's load signal to the cluster budget broker.
struct BudgetFree {
  Schedule plan;
  Watts power_at_now = 0.0;
  Speed max_speed = 0.0;
};

class DesPlanner {
 public:
  /// `registry` may be nullptr (phase profiling disabled); `plane` tags
  /// the unified phase histogram family ("sim", "runtime", ...).
  explicit DesPlanner(obs::Registry* registry = nullptr,
                      const std::string& plane = "");

  DesPlanner(const DesPlanner&) = delete;
  DesPlanner& operator=(const DesPlanner&) = delete;

  /// Starts a new replan for phase-profiling purposes and returns the
  /// step-1 (C-RR distribution) histogram when this replan is sampled,
  /// nullptr otherwise (Scope(nullptr) is inert). Phase timings are
  /// SAMPLED — 1 in kProfileSample replans — because two clock reads
  /// plus a histogram mutex per phase per replan cost ~3% of engine
  /// wall time when timed unconditionally (bench/obs_overhead gates the
  /// always-on plane at 3% total). The plan_* entry points time their
  /// phases only when the replan that entered them was sampled; callers
  /// that never call this profile every plan_* call (the histograms are
  /// resolved once at construction, so the lookup cost is gone either
  /// way).
  [[nodiscard]] obs::Histogram* begin_replan_profile() {
    profile_this_ = profiler_.enabled() &&
                    (replan_seq_++ % kProfileSample) == 0;
    return profile_this_ ? crr_hist_ : nullptr;
  }

  /// Phase-timing sample stride (see begin_replan_profile()).
  static constexpr std::uint64_t kProfileSample = 8;

  /// The paper's full C-DVFS pipeline (steps 2-4 of §IV-D; step 1, job
  /// distribution, is the consumer's because it mutates assignment
  /// state): budget-free YDS, the all-fits fast path, WF (or static /
  /// eager-escalated) power distribution, and budget-bounded planning
  /// with the rigid-discard loop; discrete rectification when
  /// `opt.speed_levels` is set. Canonicalizes and mutates `view`.
  void plan_c_dvfs(WorldView& view, const PlanOptions& opt, PlanOutcome& out);

  /// §V-A No-DVFS: all cores pinned at the equal-share speed, busy or
  /// idle (idle_power = P(s0)); Quality-OPT volumes laid out FIFO.
  void plan_no_dvfs(WorldView& view, const PlanOptions& opt, PlanOutcome& out);

  /// §V-A S-DVFS: one chip-wide speed covering the hungriest core's
  /// request, clamped to the equal share H/m.
  void plan_s_dvfs(WorldView& view, const PlanOptions& opt, PlanOutcome& out);

  /// DES step 2 for one (canonicalized) core — exposed for tests. Like
  /// every step-2 caller it goes through the per-core memo.
  [[nodiscard]] BudgetFree budget_free(const WorldView& view,
                                       std::size_t core);

  /// Sum of budget-free power requests over all cores: the total dynamic
  /// power the node would draw right now were H unlimited (the cluster
  /// broker's load signal). Leaves each core's step 2 in the memo, so a
  /// plan_* call on the same inputs reuses it.
  [[nodiscard]] Watts total_power_request(const WorldView& view);

  /// Sorts every core's job list to (deadline, id) order — arrival order
  /// for agreeable workloads. Called by every plan_* entry; idempotent.
  static void canonicalize(WorldView& view);

  /// The phase profiler backing this planner's plane — consumers wrap
  /// the phases they own (e.g. C-RR distribution) with it so all phases
  /// of one replan land in the same labeled family.
  [[nodiscard]] obs::PhaseProfiler& profiler() { return profiler_; }

 private:
  // Planned additional volume per job plus the executable timetable.
  struct CorePlan {
    Schedule plan;
    FlatVolumeMap planned;
  };

  /// DES step 2 for core `core` of `view`, memoized per core index (see
  /// "Step-2 reuse" in the file comment). Every step-2 caller goes
  /// through here. The result lives in free_plans_[core] until the next
  /// call for that index.
  const BudgetFree& budget_free_core_into(const WorldView& view,
                                          std::size_t core);
  void fixed_speed_plan_into(const CoreView& core, Time now, Speed speed,
                             bool baseline_mode, CorePlan& out);
  void budget_bounded_plan_into(const CoreView& core, Time now,
                                Speed max_speed, bool eager,
                                bool baseline_mode, CorePlan& out);
  void weighted_budget_bounded_plan_into(const CoreView& core, Time now,
                                         const QualityFunction& quality,
                                         Speed max_speed, bool eager,
                                         CorePlan& out);
  static void eager_timetable_into(const CoreView& core, Time now,
                                   const FlatVolumeMap& planned,
                                   Speed max_speed, Schedule& out);
  /// Race-to-idle vs. stretch for one planned core (C-DVFS continuous
  /// path only): when racing the granted volumes flat-out at `race_cap`
  /// and then parking beats the stretched plan's energy — dynamic
  /// premium vs. static saving over the created idle gap, net of the
  /// wake transition cost — rewrites `out.plan` to the race timetable
  /// and sets `out.sleep_after`. No-op unless the model has a sleep
  /// state and `opt.race_to_idle` is set. `critical_speed` is
  /// pm.critical_speed(), kept across planning calls in critical_speed_.
  /// `stretch_memo` is the core's stretch-energy slot when `out.plan` is
  /// its step-2 plan (the fast path), else nullptr: a priced slot is
  /// read instead of re-pricing the plan, an empty one is filled.
  void maybe_race_to_idle(const PlanOptions& opt, const PowerModel& pm,
                          Time now, Speed race_cap, Speed critical_speed,
                          std::optional<Joules>* stretch_memo,
                          CoreOutcome& out);
  static void quantize_plan_into(const Schedule& plan, Time now,
                                 const DiscreteSpeedSet& levels, Speed cap,
                                 Schedule& out);

  /// §V-D: recomputes `make_plan` until no rigid job is left incomplete,
  /// erasing discarded jobs from `core` and recording them (and the
  /// passed-over drops) into `out`. `make_plan` returns a reference to a
  /// planner-owned scratch CorePlan, valid until the next call.
  template <typename MakePlan>
  void install_with_rigid_check(CoreView& core, const PlanOptions& opt,
                                MakePlan make_plan, CoreOutcome& out);

  obs::PhaseProfiler profiler_;
  // Phase histograms resolved once at construction (see
  // begin_replan_profile()); all four register eagerly so the
  // exposition carries the full phase schema from the first scrape.
  obs::Histogram* crr_hist_ = nullptr;
  obs::Histogram* yds_hist_ = nullptr;
  obs::Histogram* wf_hist_ = nullptr;
  obs::Histogram* online_qe_hist_ = nullptr;
  std::uint64_t replan_seq_ = 0;
  // Defaults true: plan_* calls made without begin_replan_profile()
  // (unit tests, one-shot planning) keep full-rate phase timings.
  bool profile_this_ = true;
  // Step-2 memo, one slot per core index: free_plans_[i] is the result
  // of the last step-2 computation for core i, step2_keys_[i] its exact
  // inputs. A core-count change resets both to default slots.
  struct Step2Key {
    Time now = 0.0;
    double a = 0.0;
    double beta = 0.0;
    std::vector<Job> jobs;  // the list handed to YDS (release == now)
  };
  std::vector<BudgetFree> free_plans_;
  std::vector<Step2Key> step2_keys_;
  // The stretched dynamic energy of free_plans_[i].plan, priced by the
  // first fast-path race-to-idle check that reaches it; emptied by every
  // step-2 miss, so it never outlives the plan it was priced from.
  std::vector<std::optional<Joules>> stretch_energy_;
  // The last value of a pure function of N doubles and the bits of the
  // arguments it was computed from: a call with the same bits returns
  // it instead of paying the pow inside. The all-zero default is
  // consistent for every use below, since each function maps all-zero
  // arguments to 0.
  template <std::size_t N>
  struct LastValue {
    std::array<double, N> args{};
    double value = 0.0;

    template <typename F>
    double get(const std::array<double, N>& a, F compute) {
      if (std::bit_cast<std::array<std::uint64_t, N>>(a) !=
          std::bit_cast<std::array<std::uint64_t, N>>(args)) {
        args = a;
        value = compute();
      }
      return value;
    }
  };
  // The race speed's a·s^β, keyed on (speed, a, β).
  LastValue<3> race_power_;
  // pm.critical_speed(), keyed on (a, β, b, sleep_power).
  LastValue<4> critical_speed_;
  // The fast path's equal-share race cap speed_for_dynamic_power(H/m),
  // keyed on (H/m, a, β).
  LastValue<3> share_cap_;
  // Reusable scratch (cleared, never shrunk) covering the full replan:
  // snapshot handling plus the single-core sub-algorithms via their
  // *_into variants; see the zero-allocation note in the file comment.
  std::vector<ReadyJob> ready_;
  std::vector<Work> baselines_;
  std::vector<double> weights_;
  std::vector<Watts> requests_;
  std::vector<Watts> budgets_;
  std::vector<Speed> speeds_;
  std::vector<Job> jobs_tmp_;
  std::vector<Job> jobs_tmp2_;
  AgreeableJobSet set_tmp_;
  AgreeableJobSet set_tmp2_;
  YdsScratch yds_scratch_;
  YdsResult yds_out_;
  QualityOptScratch qopt_scratch_;
  QualityOptResult qopt_out_;
  OnlineQeScratch oqe_scratch_;
  OnlineQeResult oqe_out_;
  WaterfillPowerScratch wfp_scratch_;
  CorePlan plan_tmp_;
  Schedule sched_tmp_;
};

}  // namespace qes::policy
