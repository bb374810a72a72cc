// Race-to-idle decision properties (`ctest -L power`). The planner may
// rewrite a stretched core plan to run flat-out and park the core in
// the sleep C-state; these tests pin the decision's guard rails at the
// engine level:
//
//   - the race is NEVER chosen when the wake transition energy exceeds
//     the idle-interval saving (the break-even test) — the race arm is
//     then bit-identical to the stretch-only ablation arm;
//   - when the race does fire on a trough workload, it saves total
//     energy versus the stretch arm;
//   - the C-state residency partitions core-time exactly and the static
//     integral reconciles with it;
//   - the attribution plane's static/wake/residency streams reconcile
//     with the model's own accounting mid-run and at finish (the live
//     scrape acceptance bound, <= 1e-9), in the runtime and in the sim;
//   - an equal share past policy::kRaceShareMargin puts the share cap
//     above the critical speed on every model, and a share under the
//     margin still evaluates the cap.
#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/prng.hpp"
#include "multicore/des_scheduler.hpp"
#include "policy/des_planner.hpp"
#include "runtime/core.hpp"
#include "runtime/server.hpp"
#include "sim/engine.hpp"
#include "workload/generator.hpp"

namespace qes {
namespace {

constexpr double kRelTol = 1e-9;

PowerModel sleep_model(Joules wake_j, Watts b = 2.0,
                       Watts sleep_power = 0.2) {
  PowerModel pm;
  pm.b = b;
  pm.sleep_enabled = true;
  pm.sleep_power = sleep_power;
  pm.wake_latency_ms = 1.0;
  pm.wake_energy_j = wake_j;
  return pm;
}

// Trough traffic: sparse arrivals with slack (non-interactive)
// deadlines. Racing only beats stretching when the stretched speed is
// low — the win condition is roughly s_stretch * s_race <
// (b - sleep_power) / a — so the regime where sleep states pay is
// exactly the overnight one: little work, loose windows.
std::vector<Job> trough_trace(double rate, Time horizon_ms,
                              std::uint64_t seed,
                              Time deadline_ms = 2'000.0) {
  WorkloadConfig wl;
  wl.arrival_rate = rate;
  wl.horizon_ms = horizon_ms;
  wl.deadline_ms = deadline_ms;
  wl.seed = seed;
  return generate_websearch_jobs(wl);
}

RunStats run_arm(const PowerModel& pm, bool race, std::vector<Job> jobs,
                 int cores = 8, Watts budget = 160.0) {
  EngineConfig cfg;
  cfg.cores = cores;
  cfg.power_budget = budget;
  cfg.power_model = pm;
  DesOptions d;
  d.arch = Architecture::CDVFS;
  d.race_to_idle = race;
  Engine engine(cfg, std::move(jobs), make_des_policy(d));
  return engine.run().stats;
}

// Wake energy far above any achievable idle saving: the break-even
// interval 1000 * wake_energy_j / (b - sleep_power) dwarfs the horizon,
// so the planner must never park a core — and with the decision never
// firing, the race arm performs the stretch arm's arithmetic exactly.
TEST(RaceToIdle, NeverChosenWhenWakeEnergyExceedsIdleSaving) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const PowerModel pm = sleep_model(/*wake_j=*/1e6);
    ASSERT_GT(pm.sleep_break_even_ms(), 1e8);
    const std::vector<Job> jobs = trough_trace(30.0, 5'000.0, seed);
    const RunStats race = run_arm(pm, /*race=*/true, jobs);
    const RunStats stretch = run_arm(pm, /*race=*/false, jobs);
    EXPECT_EQ(race.core_wakes, 0u) << "seed " << seed;
    EXPECT_DOUBLE_EQ(race.sleep_ms, 0.0);
    EXPECT_DOUBLE_EQ(race.wake_energy, 0.0);
    EXPECT_DOUBLE_EQ(race.total_quality, stretch.total_quality);
    EXPECT_DOUBLE_EQ(race.dynamic_energy, stretch.dynamic_energy);
    EXPECT_DOUBLE_EQ(race.static_energy, stretch.static_energy);
    EXPECT_EQ(race.replans, stretch.replans);
  }
}

// Sleeping saves nothing when the parked draw matches the awake floor:
// the break-even interval is infinite and the guard must hold no matter
// how cheap the wake transition is.
TEST(RaceToIdle, NeverChosenWhenSleepSavesNothing) {
  const PowerModel pm = sleep_model(/*wake_j=*/0.0, /*b=*/2.0,
                                    /*sleep_power=*/2.0);
  EXPECT_TRUE(std::isinf(pm.sleep_break_even_ms()));
  const RunStats race =
      run_arm(pm, /*race=*/true, trough_trace(30.0, 5'000.0, 7));
  EXPECT_EQ(race.core_wakes, 0u);
  EXPECT_DOUBLE_EQ(race.sleep_ms, 0.0);
}

// A quiet trough with a cheap wake transition: cores do park, and the
// race arm's total energy beats the stretch arm's (the planner only
// takes a race that strictly wins its per-core comparison).
TEST(RaceToIdle, BeatsStretchOnTroughWorkloads) {
  const PowerModel pm = sleep_model(/*wake_j=*/0.05);
  const std::vector<Job> jobs = trough_trace(20.0, 20'000.0, 23);
  const RunStats race = run_arm(pm, /*race=*/true, jobs);
  const RunStats stretch = run_arm(pm, /*race=*/false, jobs);
  EXPECT_GT(race.sleep_ms, 0.0);
  EXPECT_GT(race.core_wakes, 0u);
  EXPECT_DOUBLE_EQ(stretch.sleep_ms, 0.0);
  EXPECT_LT(race.total_energy(), stretch.total_energy());
  // Racing trades extra dynamic energy for a larger static saving.
  EXPECT_GE(race.dynamic_energy, stretch.dynamic_energy);
  EXPECT_LT(race.static_energy + race.wake_energy, stretch.static_energy);
}

// Residency is an exact partition of core-time, and the static integral
// is exactly the residency-weighted draw.
TEST(RaceToIdle, ResidencyPartitionsCoreTime) {
  const PowerModel pm = sleep_model(/*wake_j=*/0.05);
  const int cores = 8;
  const RunStats s =
      run_arm(pm, /*race=*/true, trough_trace(20.0, 20'000.0, 23), cores);
  const double core_time = static_cast<double>(cores) * s.end_time;
  EXPECT_NEAR(s.active_ms + s.active_idle_ms + s.sleep_ms, core_time,
              kRelTol * core_time);
  const Joules static_expected =
      pm.b * (s.active_ms + s.active_idle_ms) / 1000.0 +
      pm.sleep_power * s.sleep_ms / 1000.0;
  EXPECT_NEAR(s.static_energy, static_expected,
              kRelTol * std::max(1.0, static_expected));
  EXPECT_NEAR(s.total_energy(),
              s.dynamic_energy + s.static_energy + s.wake_energy, 0.0);
}

// The attribution plane must reconcile with the model's own accounting
// while the run is still in flight (the live-scrape acceptance bound):
// the runtime feeds static/wake/residency deltas per advance() substep,
// so a scrape at any instant sees exactly the integrals so far.
TEST(PowerAttribution, MidRunScrapeReconciles) {
  runtime::RuntimeConfig rc;
  rc.cores = 4;
  rc.power_budget = 80.0;
  rc.power_model = sleep_model(/*wake_j=*/0.05);
  runtime::RuntimeCore core(rc);

  // A sparse agreeable batch with long gaps, so cores park mid-run.
  const std::vector<Job> jobs = {
      {.id = 1, .release = 0.0, .deadline = 150.0, .demand = 300.0},
      {.id = 2, .release = 0.0, .deadline = 180.0, .demand = 200.0},
      {.id = 3, .release = 0.0, .deadline = 4'000.0, .demand = 400.0},
  };
  for (const Job& j : jobs) core.submit(j);
  if (core.check_triggers()) core.replan();

  const Time final_deadline = 4'000.0;
  for (Time t = 100.0; t <= final_deadline; t += 100.0) {
    core.advance(t);
    if (core.check_triggers()) core.replan();
    // Live mid-run scrape: the attribution stream equals the model's
    // internal accumulators at every step (same per-substep deltas).
    const runtime::CoreCounters c = core.counters();
    const obs::EnergyAttribution& att = core.attribution();
    EXPECT_NEAR(att.static_energy(), c.static_energy,
                kRelTol * std::max(1.0, c.static_energy));
    EXPECT_NEAR(att.wake_energy(), c.wake_energy,
                kRelTol * std::max(1.0, c.wake_energy));
    const double core_time = static_cast<double>(rc.cores) * core.now();
    const double residency =
        att.residency_ms(obs::EnergyAttribution::kActive) +
        att.residency_ms(obs::EnergyAttribution::kActiveIdle) +
        att.residency_ms(obs::EnergyAttribution::kSleep);
    EXPECT_NEAR(residency, core_time, kRelTol * std::max(1.0, core_time));
  }

  ASSERT_TRUE(core.all_finalized());
  const RunStats s = core.finish(final_deadline);
  EXPECT_GT(s.sleep_ms, 0.0);
  const obs::EnergyAttribution& att = core.attribution();
  // Final reconciliation: dynamic classes + static + wake == RunStats
  // total within the acceptance bound.
  EXPECT_NEAR(att.energy_total(), s.dynamic_energy,
              kRelTol * std::max(1.0, s.dynamic_energy));
  EXPECT_NEAR(att.energy_grand_total(), s.total_energy(),
              kRelTol * std::max(1.0, s.total_energy()));
  EXPECT_NEAR(att.residency_ms(obs::EnergyAttribution::kSleep), s.sleep_ms,
              kRelTol * std::max(1.0, s.sleep_ms));
}

// The same reconciliation on the simulator: the engine's ledger streams
// static, wake and residency into attribution per substep, so a scrape
// at any replan sees the integrals so far, and once the run ends the
// attribution's totals are RunStats' own figures, bit for bit.
TEST(PowerAttribution, SimEngineScrapeReconcilesMidRunAndExactlyAtEnd) {
  // Wraps the DES policy and scrapes the attribution at every replan.
  class ScrapingPolicy : public SchedulingPolicy {
   public:
    ScrapingPolicy(std::unique_ptr<SchedulingPolicy> inner, int* scrapes)
        : inner_(std::move(inner)), scrapes_(scrapes) {}
    void replan(Engine& engine) override {
      const obs::EnergyAttribution& att = engine.attribution();
      const double core_time =
          static_cast<double>(engine.cores()) * engine.now();
      const double residency =
          att.residency_ms(obs::EnergyAttribution::kActive) +
          att.residency_ms(obs::EnergyAttribution::kActiveIdle) +
          att.residency_ms(obs::EnergyAttribution::kSleep);
      EXPECT_NEAR(residency, core_time, kRelTol * std::max(1.0, core_time))
          << "scrape at t=" << engine.now();
      EXPECT_GT(att.static_energy(), 0.0) << "scrape at t=" << engine.now();
      ++*scrapes_;
      inner_->replan(engine);
    }
    [[nodiscard]] std::string name() const override { return inner_->name(); }

   private:
    std::unique_ptr<SchedulingPolicy> inner_;
    int* scrapes_;
  };

  EngineConfig cfg;
  cfg.cores = 8;
  cfg.power_budget = 160.0;
  cfg.power_model = sleep_model(/*wake_j=*/0.05);
  DesOptions d;
  d.race_to_idle = true;
  int scrapes = 0;
  Engine engine(cfg, trough_trace(20.0, 20'000.0, 23),
                std::make_unique<ScrapingPolicy>(make_des_policy(d), &scrapes));
  const RunStats s = engine.run().stats;
  EXPECT_GT(scrapes, 50);
  EXPECT_GT(s.sleep_ms, 0.0);
  EXPECT_GT(s.core_wakes, 0u);

  const obs::EnergyAttribution& att = engine.attribution();
  EXPECT_EQ(att.static_energy(), s.static_energy);
  EXPECT_EQ(att.wake_energy(), s.wake_energy);
  EXPECT_EQ(att.residency_ms(obs::EnergyAttribution::kActive), s.active_ms);
  EXPECT_EQ(att.residency_ms(obs::EnergyAttribution::kActiveIdle),
            s.active_idle_ms);
  EXPECT_EQ(att.residency_ms(obs::EnergyAttribution::kSleep), s.sleep_ms);
}

// The live threaded server under a sleep model: sparse traffic with
// slack deadlines must actually park cores (workers doze through the
// PlanCell kSleep word instead of idle-polling) and wake them on the
// next arrival, with the residency partition and the power invariant
// intact end to end.
TEST(PowerRuntimeServer, LiveServerParksCoresOnSparseTraffic) {
  runtime::ServerConfig sc;
  sc.model.cores = 4;
  sc.model.power_budget = 80.0;
  sc.model.power_model = sleep_model(/*wake_j=*/0.05);
  sc.deadline_ms = 2'000.0;
  sc.time_scale = 20.0;
  sc.metrics_interval_ms = 50.0;
  runtime::Server server(sc);
  server.start();
  // One small job every 300 virtual ms: stretched speed 100/2000 is far
  // below the critical speed, so every replan races and parks.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        server.submit({.demand = 100.0}, std::chrono::milliseconds(100)));
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(300.0 / sc.time_scale));
  }
  const RunStats stats = server.drain_and_stop();
  EXPECT_EQ(stats.jobs_total, 6u);
  EXPECT_GT(stats.total_quality, 0.0);
  EXPECT_GT(stats.sleep_ms, 0.0);
  EXPECT_GT(stats.core_wakes, 0u);
  EXPECT_GT(stats.static_energy, 0.0);
  EXPECT_LE(stats.peak_power, 80.0 * (1.0 + 1e-6) + 1e-6);
  const double core_time = 4.0 * stats.end_time;
  EXPECT_NEAR(stats.active_ms + stats.active_idle_ms + stats.sleep_ms,
              core_time, kRelTol * core_time);
  // The metrics snapshots carry the new accounting.
  ASSERT_FALSE(server.snapshots().empty());
  const runtime::MetricsSnapshot& last = server.snapshots().back();
  EXPECT_GT(last.static_energy_j, 0.0);
  EXPECT_FALSE(last.to_json().empty());
}

// ---- The race share margin (policy::kRaceShareMargin) ----
//
// plan_c_dvfs's fast path skips the share cap speed_for_dynamic_power(H/m)
// once H/m >= P(s*)·(1 + kRaceShareMargin), taking the cap to be above
// the critical speed s*. That must hold for the cap the pow would have
// returned, on every model.
TEST(RaceShareMargin, CapAtTheMarginClearsTheCriticalSpeed) {
  const auto check = [](const PowerModel& pm) {
    const Speed s = pm.critical_speed();
    ASSERT_GT(s, 0.0);
    const Watts floor =
        pm.dynamic_power(s) * (1.0 + policy::kRaceShareMargin);
    EXPECT_GE(pm.speed_for_dynamic_power(floor), s)
        << "a = " << pm.a << ", beta = " << pm.beta << ", b = " << pm.b
        << ", sleep_power = " << pm.sleep_power;
  };
  for (double a : {0.05, 0.5, 2.6075, 5.0, 12.5, 80.0}) {
    for (double beta : {1.1, 1.5, 1.791, 2.0, 2.5, 3.0, 4.0, 7.0}) {
      for (Watts b : {0.1, 0.7, 2.0, 9.2562, 40.0}) {
        for (double sleep_frac : {0.0, 0.1, 0.5, 0.95}) {
          PowerModel pm = sleep_model(0.05, b, b * sleep_frac);
          pm.a = a;
          pm.beta = beta;
          check(pm);
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
  Xoshiro256 rng(0x5EA);
  for (int iter = 0; iter < 20000; ++iter) {
    const Watts b = std::exp(rng.uniform(std::log(0.01), std::log(100.0)));
    PowerModel pm = sleep_model(0.05, b, b * rng.uniform(0.0, 0.99));
    pm.a = std::exp(rng.uniform(std::log(0.01), std::log(100.0)));
    pm.beta = rng.uniform(1.05, 6.0);
    check(pm);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Under the margin the share cap is evaluated: the race runs at
// min(its pow, s*) bit for bit, and the outcome is tied to that H, so
// the planner certifies it for no other budget.
TEST(RaceShareMargin, ShareUnderTheMarginTakesThePowPath) {
  const PowerModel pm = sleep_model(/*wake_j=*/0.05);  // s* = 0.6 GHz
  const QualityFunction quality = QualityFunction::exponential();
  const Speed s_star = pm.critical_speed();
  const Watts p_star = pm.dynamic_power(s_star);
  const Watts floor = p_star * (1.0 + policy::kRaceShareMargin);
  // One core whose one long light job stretches at 0.1 GHz and races.
  const auto plan_at = [&](policy::DesPlanner& planner, Watts budget) {
    policy::WorldView v;
    v.reset(0.0, budget, 1);
    v.power_model = &pm;
    v.quality = &quality;
    v.cores[0].jobs = {{.id = 1, .deadline = 200.0, .demand = 20.0}};
    policy::PlanOutcome out;
    planner.plan_c_dvfs(v, policy::PlanOptions{}, out);
    return out.cores[0];
  };

  {
    policy::DesPlanner planner;
    const policy::CoreOutcome at_floor = plan_at(planner, floor);
    ASSERT_TRUE(at_floor.sleep_after);
    EXPECT_EQ(at_floor.plan[0].speed, s_star);
    EXPECT_TRUE(planner.last_outcome_holds(floor));
    EXPECT_TRUE(planner.last_outcome_holds(2.0 * floor));
  }
  const Watts under_margin[] = {std::nextafter(floor, 0.0),
                                p_star * (1.0 + 0.5 * policy::kRaceShareMargin),
                                p_star, std::nextafter(p_star, 0.0),
                                p_star * (1.0 - 1e-9), p_star * (1.0 - 1e-6),
                                0.5 * p_star};
  for (Watts share : under_margin) {
    policy::DesPlanner planner;
    const policy::CoreOutcome out = plan_at(planner, share);
    ASSERT_TRUE(out.sleep_after) << share;
    const Speed want = std::min(pm.speed_for_dynamic_power(share), s_star);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(out.plan[0].speed),
              std::bit_cast<std::uint64_t>(want))
        << share;
    EXPECT_FALSE(planner.last_outcome_holds(share)) << share;
    EXPECT_FALSE(planner.last_outcome_holds(2.0 * floor)) << share;
  }
  // Half of P(s*) binds the race below s*.
  policy::DesPlanner planner;
  EXPECT_LT(plan_at(planner, 0.5 * p_star).plan[0].speed, s_star);
}

}  // namespace
}  // namespace qes
