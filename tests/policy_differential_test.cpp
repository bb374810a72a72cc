// Differential proof for the one-kernel refactor: identical WorldViews
// fed through independently constructed DesPlanner instances — with and
// without a metrics registry attached, across the plane labels the sim
// and runtime adapters use, and across a scenario sequence that dirties
// the reusable scratch buffers — must produce bitwise-identical plans,
// bitwise-identical quality accounting, and energies equal within the
// sim<->runtime conformance tolerance (kRelTol = 1e-9, see
// tests/runtime_conformance_test.cpp). The end-to-end counterpart is
// runtime_conformance_test / cluster_conformance_test, which drive the
// two planes through their adapters on real workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/power.hpp"
#include "core/quality.hpp"
#include "obs/registry.hpp"
#include "policy/des_planner.hpp"
#include "policy/world_view.hpp"

namespace qes::policy {
namespace {

const PowerModel kPm = default_power_model();
const QualityFunction kQuality = QualityFunction::exponential();

// The same tolerance the lockstep conformance harness allows on
// accumulated energy; quality agreement is asserted bitwise.
constexpr double kRelTol = 1e-9;

struct Scenario {
  const char* name;
  Watts budget;
  PlanOptions opt;
  int variant;  // 0 = C-DVFS, 1 = No-DVFS, 2 = S-DVFS
};

const DiscreteSpeedSet kLevels(std::vector<Speed>{0.4, 0.8, 1.2});

// One canonical mixed workload: a running head, a rigid job, a fully
// served job awaiting the passed-over drop, and an idle core.
void fill_view(WorldView& v, Watts budget) {
  v.reset(0.0, budget, 3);
  v.power_model = &kPm;
  v.quality = &kQuality;
  v.cores[0].jobs = {
      {.id = 1, .deadline = 30.0, .demand = 25.0, .processed = 6.0},
      {.id = 2, .deadline = 70.0, .demand = 55.0},
      {.id = 3, .deadline = 110.0, .demand = 80.0, .partial_ok = false}};
  v.cores[1].jobs = {
      {.id = 4, .deadline = 50.0, .demand = 15.0, .processed = 15.0},
      {.id = 5, .deadline = 95.0, .demand = 60.0, .weight = 3.0}};
  // core 2 idle
}

std::vector<Scenario> scenarios() {
  std::vector<Scenario> s;
  s.push_back({.name = "fast_path", .budget = 400.0, .opt = {}, .variant = 0});
  s.push_back({.name = "constrained", .budget = 3.0, .opt = {}, .variant = 0});
  {
    Scenario d{.name = "discrete", .budget = 6.0, .opt = {}, .variant = 0};
    d.opt.speed_levels = &kLevels;
    s.push_back(d);
  }
  {
    Scenario w{.name = "weighted", .budget = 3.0, .opt = {}, .variant = 0};
    w.opt.weighted = true;
    s.push_back(w);
  }
  {
    Scenario st{.name = "static", .budget = 3.0, .opt = {}, .variant = 0};
    st.opt.static_power = true;
    s.push_back(st);
  }
  s.push_back({.name = "no_dvfs", .budget = 9.0, .opt = {}, .variant = 1});
  s.push_back({.name = "s_dvfs", .budget = 9.0, .opt = {}, .variant = 2});
  return s;
}

// Plans the view with the scenario's pipeline.
PlanOutcome plan(DesPlanner& planner, const Scenario& sc, WorldView& v) {
  PlanOutcome out;
  switch (sc.variant) {
    case 1:
      planner.plan_no_dvfs(v, sc.opt, out);
      break;
    case 2:
      planner.plan_s_dvfs(v, sc.opt, out);
      break;
    default:
      planner.plan_c_dvfs(v, sc.opt, out);
      break;
  }
  return out;
}

PlanOutcome run(DesPlanner& planner, const Scenario& sc) {
  WorldView v;
  fill_view(v, sc.budget);
  return plan(planner, sc, v);
}

// Quality the outcome commits to, accumulated in the consumers' apply
// order (per core, plan volumes in canonical job order). Bitwise
// reproducibility of this sum is exactly what keeps the sim and runtime
// planes' RunStats identical.
double committed_quality(const PlanOutcome& out) {
  double q = 0.0;
  WorldView ref;
  fill_view(ref, 1.0);
  DesPlanner::canonicalize(ref);
  for (std::size_t i = 0; i < out.cores.size(); ++i) {
    for (const ViewJob& vj : ref.cores[i].jobs) {
      const Work vol =
          std::min(vj.processed + out.cores[i].plan.volume_of(vj.id),
                   vj.demand);
      q += kQuality(vol);
    }
  }
  return q;
}

double planned_energy(const PlanOutcome& out) {
  double e = 0.0;
  for (const CoreOutcome& c : out.cores) e += c.plan.dynamic_energy(kPm);
  return e;
}

void expect_same_outcome(const PlanOutcome& a, const PlanOutcome& b,
                         const char* name) {
  ASSERT_EQ(a.cores.size(), b.cores.size()) << name;
  for (std::size_t i = 0; i < a.cores.size(); ++i) {
    const CoreOutcome& ca = a.cores[i];
    const CoreOutcome& cb = b.cores[i];
    ASSERT_EQ(ca.plan.size(), cb.plan.size()) << name << " core " << i;
    for (std::size_t k = 0; k < ca.plan.size(); ++k) {
      EXPECT_EQ(ca.plan[k].t0, cb.plan[k].t0) << name;
      EXPECT_EQ(ca.plan[k].t1, cb.plan[k].t1) << name;
      EXPECT_EQ(ca.plan[k].job, cb.plan[k].job) << name;
      EXPECT_EQ(ca.plan[k].speed, cb.plan[k].speed) << name;
    }
    EXPECT_EQ(ca.idle_power, cb.idle_power) << name;
    EXPECT_EQ(ca.sleep_after, cb.sleep_after) << name;
    EXPECT_EQ(ca.rigid_discards, cb.rigid_discards) << name;
    EXPECT_EQ(ca.passed_over, cb.passed_over) << name;
  }
}

TEST(PlannerDifferential, SimAndRuntimePlaneInstancesAgreeBitwise) {
  // Two kernels the way the two adapters construct them: the sim plane
  // with a registry, the runtime plane with another. The plane label and
  // the profiling side-channel must not perturb a single bit of the
  // arithmetic, and the committed quality must match bitwise — that is
  // the invariant the lockstep conformance harness measures end to end.
  obs::Registry sim_reg;
  obs::Registry rt_reg;
  DesPlanner sim_planner(&sim_reg, "sim");
  DesPlanner rt_planner(&rt_reg, "runtime");
  for (const Scenario& sc : scenarios()) {
    const PlanOutcome a = run(sim_planner, sc);
    const PlanOutcome b = run(rt_planner, sc);
    expect_same_outcome(a, b, sc.name);
    EXPECT_EQ(committed_quality(a), committed_quality(b)) << sc.name;
    const double ea = planned_energy(a);
    const double eb = planned_energy(b);
    EXPECT_NEAR(ea, eb, kRelTol * std::max(1.0, ea)) << sc.name;
  }
}

TEST(PlannerDifferential, ProfiledAndUnprofiledPlannersAgreeBitwise) {
  obs::Registry reg;
  DesPlanner profiled(&reg, "sim");
  DesPlanner bare;  // no registry: the profiler is inert
  for (const Scenario& sc : scenarios()) {
    expect_same_outcome(run(profiled, sc), run(bare, sc), sc.name);
  }
  // The profiled side actually recorded the pipeline phases.
  EXPECT_NE(reg.find_histogram(kReplanPhaseMetric,
                               {{"plane", "sim"}, {"phase", "yds"}}),
            nullptr);
}

TEST(PlannerDifferential, DirtyScratchNeverLeaksAcrossScenarios) {
  // One long-lived planner walks the scenario sequence twice in opposite
  // orders (leaving different scratch contents before each plan); a
  // fresh planner per scenario is the reference. Any reliance on
  // scratch-buffer contents surviving a replan shows up here.
  DesPlanner reused;
  std::vector<Scenario> seq = scenarios();
  std::vector<PlanOutcome> forward;
  forward.reserve(seq.size());
  for (const Scenario& sc : seq) forward.push_back(run(reused, sc));
  std::reverse(seq.begin(), seq.end());
  std::vector<PlanOutcome> backward;
  backward.reserve(seq.size());
  for (const Scenario& sc : seq) backward.push_back(run(reused, sc));
  std::reverse(backward.begin(), backward.end());
  std::reverse(seq.begin(), seq.end());
  for (std::size_t k = 0; k < seq.size(); ++k) {
    DesPlanner fresh;
    const PlanOutcome ref = run(fresh, seq[k]);
    expect_same_outcome(forward[k], ref, seq[k].name);
    expect_same_outcome(backward[k], ref, seq[k].name);
  }
}

TEST(PlannerDifferential, ReusedViewAndOutcomeMatchFreshOnes) {
  // The adapters reuse one WorldView and one PlanOutcome across replans
  // (reset() keeps capacity). Reuse must be observationally identical to
  // fresh objects every replan.
  DesPlanner planner;
  WorldView reused_view;
  PlanOutcome reused_out;
  for (const Scenario& sc : scenarios()) {
    if (sc.variant != 0) continue;
    fill_view(reused_view, sc.budget);
    planner.plan_c_dvfs(reused_view, sc.opt, reused_out);
    DesPlanner fresh;
    const PlanOutcome ref = run(fresh, sc);
    expect_same_outcome(reused_out, ref, sc.name);
  }
}

// ---- The step-2 memo (see "Step-2 reuse" in des_planner.hpp) ----
//
// A planner reuses a core's budget-free YDS plan when the core's step-2
// inputs repeat bit for bit. These tests hold a warm planner (one that
// has just planned related inputs) to a fresh one on the same inputs.

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// The memo tests' base view: fill_view at now = 5 ms, with the head job
// of core 0 17 of its 25 units in. (At fill_view's 6 of 25, one ulp of
// executed volume rounds away in the remaining demand 19; at 17 of 25 it
// changes the remaining demand, which is what step 2 reads.)
void fill_memo_view(WorldView& v, Watts budget, const PowerModel& pm) {
  fill_view(v, budget);
  v.now = 5.0;
  v.power_model = &pm;
  v.cores[0].jobs[0].processed = 17.0;
}

// The overnight_trough power model: b = 2 W, a 0.2 W sleep state and a
// 1 ms / 0.05 J wake. PlanOptions{} races to idle by default, at the
// critical speed s* = 0.6 GHz unless a lower cap binds.
PowerModel trough_power_model() {
  PowerModel pm = default_power_model();
  pm.b = 2.0;
  pm.sleep_enabled = true;
  pm.sleep_power = 0.2;
  pm.wake_latency_ms = 1.0;
  pm.wake_energy_j = 0.05;
  return pm;
}

// Race-to-idle's inputs at now = 5 ms. Every step-2 speed is at most
// 0.2 GHz, so both trough budgets take the fast path, where each core
// prices its step-2 plan against a race:
//  - core 0 (speed_cap 0.45 GHz, which sets its race speed): 14 units
//    due by 75 ms, stretched at 0.2 GHz. Racing wins by a hair at
//    a = 5, beta = 2 and loses at a = 6.25 or wins bigger at beta = 2.5,
//    so a race power kept from the old a or beta flips its verdict;
//  - core 1: a 30 ms job, whose gap is too short to amortize a wake;
//  - core 2 (speed_cap 0.45 GHz): a long light job that always races.
// Three jobs on core 0 and ids 1-5 keep step2_changes() applicable.
void fill_trough_view(WorldView& v, Watts budget, const PowerModel& pm) {
  v.reset(5.0, budget, 3);
  v.power_model = &pm;
  v.quality = &kQuality;
  v.cores[0].speed_cap = 0.45;
  v.cores[0].jobs = {
      {.id = 1, .deadline = 25.0, .demand = 4.0, .processed = 3.0},
      {.id = 2, .deadline = 50.0, .demand = 6.0},
      {.id = 3, .deadline = 75.0, .demand = 7.0}};
  v.cores[1].jobs = {{.id = 4, .deadline = 35.0, .demand = 6.0}};
  v.cores[2].speed_cap = 0.45;
  v.cores[2].jobs = {{.id = 5, .deadline = 205.0, .demand = 20.0}};
}

// Both budgets cover the trough view's request. At 30 W the equal-share
// race cap (1.41 GHz) binds nowhere; at 1.5 W it is 0.32 GHz and sets
// core 2's race speed, so a budget change moves that core's race.
std::vector<Scenario> trough_scenarios() {
  return {{.name = "trough_fast_path", .budget = 30.0, .opt = {}, .variant = 0},
          {.name = "trough_race_cap", .budget = 1.5, .opt = {}, .variant = 0}};
}

// One power model and the view and scenarios the memo tests run it on.
struct MemoModel {
  const char* name;
  PowerModel pm;
  void (*fill)(WorldView& v, Watts budget, const PowerModel& pm);
  std::vector<Scenario> scenarios;
};

std::vector<MemoModel> memo_models() {
  return {{"default", default_power_model(), fill_memo_view, scenarios()},
          {"trough", trough_power_model(), fill_trough_view,
           trough_scenarios()}};
}

TEST(PlannerStep2Memo, TroughViewRacesOnTheFastPath) {
  // Pins what the trough cases below rely on: the fast path, a race
  // speed set by core 0's speed_cap, and one racing core per budget
  // whose race speed is the equal-share cap.
  const PowerModel pm = trough_power_model();
  for (const Scenario& sc : trough_scenarios()) {
    DesPlanner planner;
    WorldView v;
    fill_trough_view(v, sc.budget, pm);
    EXPECT_LE(planner.total_power_request(v), sc.budget) << sc.name;
    for (std::size_t i = 0; i < v.cores.size(); ++i) {
      EXPECT_LE(planner.budget_free(v, i).max_speed, 0.45) << sc.name;
    }
    const PlanOutcome out = plan(planner, sc, v);
    // Below core 0's 0.45 GHz cap the share cap shortens its gap too
    // much to race; core 2 then races at the share cap.
    const Speed share_cap = pm.speed_for_dynamic_power(sc.budget / 3.0);
    const bool cap_binds = share_cap < 0.45;
    EXPECT_EQ(out.cores[0].sleep_after, !cap_binds) << sc.name;
    EXPECT_FALSE(out.cores[1].sleep_after) << sc.name;
    EXPECT_TRUE(out.cores[2].sleep_after) << sc.name;
    if (cap_binds) {
      EXPECT_EQ(out.cores[2].plan[0].speed, share_cap) << sc.name;
    } else {
      EXPECT_EQ(out.cores[0].plan[0].speed, 0.45) << sc.name;
    }
  }
}

TEST(PlannerStep2Memo, PowerRequestThenReplanMatchesAFreshReplan) {
  // The cluster broker's sequence: a node's power request, then the
  // replan it forces at the same instant on the same queues. The replan
  // reuses the request's step 2 and must plan exactly what a planner
  // that never saw the request plans.
  for (const MemoModel& model : memo_models()) {
    for (const Scenario& sc : model.scenarios) {
      const std::string name = std::string(model.name) + "/" + sc.name;
      DesPlanner warm;
      WorldView v;
      model.fill(v, sc.budget, model.pm);
      const Watts request = warm.total_power_request(v);
      const PlanOutcome reused = plan(warm, sc, v);

      DesPlanner fresh;
      WorldView ref;
      model.fill(ref, sc.budget, model.pm);
      expect_same_outcome(reused, plan(fresh, sc, ref), name.c_str());
      DesPlanner fresh_request;
      model.fill(ref, sc.budget, model.pm);
      EXPECT_TRUE(same_bits(request, fresh_request.total_power_request(ref)))
          << name;
    }
  }
}

// One change to the base inputs: the view and, in place, the power
// model the view points at.
struct Step2Change {
  const char* name;
  void (*apply)(WorldView& v, PowerModel& pm);
};

std::vector<Step2Change> step2_changes() {
  return {
      {"now_one_ulp",
       [](WorldView& v, PowerModel&) {
         v.now = std::nextafter(v.now, 1e300);
       }},
      {"processed_one_ulp",
       [](WorldView& v, PowerModel&) {
         Work& p = v.cores[0].jobs[0].processed;
         p = std::nextafter(p, 1e300);
       }},
      {"deadline",
       [](WorldView& v, PowerModel&) { v.cores[0].jobs[2].deadline += 1.0; }},
      {"id",
       [](WorldView& v, PowerModel&) { v.cores[0].jobs[1].id = 9; }},
      {"job_added",
       [](WorldView& v, PowerModel&) {
         v.cores[1].jobs.push_back(
             {.id = 6, .deadline = 120.0, .demand = 30.0});
       }},
      {"job_removed",
       [](WorldView& v, PowerModel&) { v.cores[0].jobs.pop_back(); }},
      // On the trough view core 0's speed_cap sets its race speed, so
      // these two keep the race speed's bits and change only a or beta.
      {"pm_a", [](WorldView&, PowerModel& pm) { pm.a *= 1.25; }},
      {"pm_beta", [](WorldView&, PowerModel& pm) { pm.beta = 2.5; }},
      // Not a step-2 input: the request and the replan see different
      // budgets, so the fast path's equal-share race cap moves.
      {"budget", [](WorldView& v, PowerModel&) { v.power_budget *= 0.8; }},
      {"core_added",
       [](WorldView& v, PowerModel&) {
         v.cores.emplace_back();
         v.cores.back().jobs.push_back(
             {.id = 6, .deadline = 60.0, .demand = 20.0});
       }},
      {"core_removed",
       [](WorldView& v, PowerModel&) { v.cores.pop_back(); }},
  };
}

TEST(PlannerStep2Memo, EveryKeyFieldChangeMatchesAFreshPlanner) {
  // Warm a planner on the base inputs (its power request and a replan,
  // as a broker tick does), then change one planner input. Whatever the
  // planner keeps from the base (step-2 plans, their stretch energies,
  // the last race power) must not leak into the changed inputs' plans
  // or power request.
  for (const MemoModel& model : memo_models()) {
    for (const Scenario& sc : model.scenarios) {
      for (const Step2Change& change : step2_changes()) {
        const std::string name = std::string(model.name) + "/" + sc.name +
                                 "/" + change.name;
        PowerModel pm = model.pm;
        DesPlanner warm;
        WorldView v;
        model.fill(v, sc.budget, pm);
        (void)warm.total_power_request(v);
        (void)plan(warm, sc, v);

        // The changed inputs. The power model changes in place, at the
        // address the warm planner has already seen.
        WorldView changed;
        model.fill(changed, sc.budget, pm);
        change.apply(changed, pm);

        // On the warm planner: a replan, then a request. Planning may
        // erase jobs from its view, so each call gets a copy.
        v = changed;
        const PlanOutcome warm_out = plan(warm, sc, v);
        v = changed;
        const Watts warm_request = warm.total_power_request(v);

        DesPlanner fresh;
        v = changed;
        expect_same_outcome(warm_out, plan(fresh, sc, v), name.c_str());
        DesPlanner fresh_request;
        v = changed;
        EXPECT_TRUE(
            same_bits(warm_request, fresh_request.total_power_request(v)))
            << name;
      }
    }
  }
}

// ---- Kept outcomes (see "Kept outcomes" in des_planner.hpp) ----
//
// A planner that has planned a view at H is asked whether its outcome
// holds at H'. Whenever it says so, a fresh planner's plan at H' must be
// that outcome bit for bit.

// A named budget and what the certificate must say about it.
struct KeptBudget {
  const char* name;
  Watts budget;
  // The fast path with H/m past the race share margin: every pair of
  // these must be certified.
  bool certified;
};

// The budgets one view is tried at: a fast-path budget H0, its
// neighbours one ulp away, 0.7 and 1.3 times it, and budgets the
// certificate must refuse. On the trough view those are one that leaves
// the fast path, one whose H/m is just inside the race share margin,
// and one where the equal-share race cap binds; on the b = 0 view no
// core reads a race cap, so H matters only through the fast path's
// test, at whose edge two more budgets sit.
std::vector<KeptBudget> kept_budgets(DesPlanner& probe, bool trough,
                                     void (*fill)(WorldView&, Watts,
                                                  const PowerModel&),
                                     const PowerModel& pm) {
  WorldView v;
  fill(v, 1.0, pm);
  const Watts request = probe.total_power_request(v);
  const double m = static_cast<double>(v.cores.size());
  const Watts h0 = 30.0;
  std::vector<KeptBudget> out = {
      {"h0", h0, true},
      {"h0_up_ulp", std::nextafter(h0, 1e300), true},
      {"h0_down_ulp", std::nextafter(h0, 0.0), true},
      {"h0_x0.7", 0.7 * h0, true},
      {"h0_x1.3", 1.3 * h0, true},
      {"slow_path", 0.5 * request, false}};
  if (trough) {
    const Watts p_star = pm.dynamic_power(pm.critical_speed());
    out.push_back({"inside_margin",
                   m * p_star * (1.0 + 0.5 * kRaceShareMargin), false});
    out.push_back({"cap_binds", 1.5, false});
  } else {
    out.push_back({"fast_path_edge", request - 0.5 * kTimeEps, true});
    out.push_back({"past_the_edge", request - 2.0 * kTimeEps, false});
  }
  return out;
}

TEST(PlannerKeptOutcome, CertifiedBudgetsPlanBitForBit) {
  struct KeptModel {
    const char* name;
    PowerModel pm;
    void (*fill)(WorldView& v, Watts budget, const PowerModel& pm);
    bool trough;
  };
  const KeptModel models[] = {
      {"trough", trough_power_model(), fill_trough_view, true},
      {"b0", default_power_model(), fill_memo_view, false}};
  for (const KeptModel& model : models) {
    DesPlanner probe;
    const std::vector<KeptBudget> budgets =
        kept_budgets(probe, model.trough, model.fill, model.pm);
    std::size_t certified = 0;
    for (const KeptBudget& from : budgets) {
      for (const KeptBudget& to : budgets) {
        if (&from == &to) continue;
        const std::string name = std::string(model.name) + "/" + from.name +
                                 "->" + to.name;
        DesPlanner warm;
        WorldView v;
        model.fill(v, from.budget, model.pm);
        PlanOutcome kept;
        warm.plan_c_dvfs(v, PlanOptions{}, kept);
        const bool holds = warm.last_outcome_holds(to.budget);
        EXPECT_EQ(holds, from.certified && to.certified) << name;
        if (!holds) continue;
        ++certified;
        DesPlanner fresh;
        model.fill(v, to.budget, model.pm);
        PlanOutcome replanned;
        fresh.plan_c_dvfs(v, PlanOptions{}, replanned);
        expect_same_outcome(kept, replanned, name.c_str());
      }
    }
    EXPECT_GT(certified, 0u) << model.name;
  }
}

TEST(PlannerKeptOutcome, TroughBudgetsReadTheRaceCap) {
  // What the refusals above rest on: on the trough view every fast-path
  // budget prices a race against the cap, and at the binding budget the
  // cap moves the outcome.
  const PowerModel pm = trough_power_model();
  WorldView v;
  fill_trough_view(v, 1.5, pm);
  DesPlanner binding;
  PlanOutcome at_cap;
  binding.plan_c_dvfs(v, PlanOptions{}, at_cap);
  fill_trough_view(v, 30.0, pm);
  DesPlanner roomy;
  PlanOutcome at_h0;
  roomy.plan_c_dvfs(v, PlanOptions{}, at_h0);
  EXPECT_TRUE(at_h0.cores[2].sleep_after);
  EXPECT_NE(at_cap.cores[2].plan[0].speed, at_h0.cores[2].plan[0].speed);
  // No other plan_* call is certified for any budget.
  DesPlanner other;
  PlanOutcome out;
  fill_trough_view(v, 30.0, pm);
  other.plan_c_dvfs(v, PlanOptions{}, out);
  ASSERT_TRUE(other.last_outcome_holds(30.0));
  fill_trough_view(v, 30.0, pm);
  other.plan_s_dvfs(v, PlanOptions{}, out);
  EXPECT_FALSE(other.last_outcome_holds(30.0));
  fill_trough_view(v, 30.0, pm);
  other.plan_c_dvfs(v, PlanOptions{}, out);
  fill_trough_view(v, 30.0, pm);
  other.plan_no_dvfs(v, PlanOptions{}, out);
  EXPECT_FALSE(other.last_outcome_holds(30.0));
}

}  // namespace
}  // namespace qes::policy
