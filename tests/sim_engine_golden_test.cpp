// Engine-level golden test: RunStats must stay BITWISE identical across
// engine-internal refactors (the calendar-queue event core, scratch
// pooling in the replan path, the dense per-core substep, ...). The
// golden file pins every RunStats field of a spread of seed
// configurations — the fig08-style paper setup plus the variant paths
// (overload, resume, counter-only triggers, S-/No-DVFS, discrete
// levels, big.LITTLE, weighted, eager, baselines, scheduled budget
// steps, and a static-power trough with sleep states and race-to-idle,
// which drives the residency, wake and parking branches) — as exact
// IEEE-754 bit patterns. One case also runs with record_execution on
// and pins a digest of every executed segment.
//
// Regenerating (ONLY legitimate after an intentional semantic change,
// or to pin a newly added case on an unchanged engine): run
//   QES_GOLDEN_DUMP=1 build/tests/sim_engine_golden_test
//       --gtest_filter='*RunStatsBitwiseStable'
// and keep only the table lines (grep -E '^[a-z0-9_]+ [a-z0-9_]+ [0-9a-f]{16} ')
// in tests/golden/engine_runstats.txt.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "golden_util.hpp"
#include "multicore/baseline_scheduler.hpp"
#include "multicore/des_scheduler.hpp"
#include "sim/engine.hpp"
#include "workload/generator.hpp"

namespace {

using namespace qes;
using test::Fnv1a;

struct GoldenCase {
  std::string name;
  RunStats stats;
  /// FNV-1a over RunResult::executed; set only for record_execution runs.
  std::optional<std::uint64_t> executed_digest;
  std::size_t executed_segments = 0;
};

GoldenCase run_case(std::string name, EngineConfig cfg,
                    const WorkloadConfig& wl,
                    std::unique_ptr<SchedulingPolicy> policy,
                    bool record_execution = false) {
  cfg.record_execution = record_execution;
  Engine engine(cfg, generate_websearch_jobs(wl), std::move(policy));
  const RunResult r = engine.run();
  GoldenCase out{std::move(name), r.stats, std::nullopt, 0};
  if (record_execution) {
    Fnv1a d;
    for (std::size_t core = 0; core < r.executed.size(); ++core) {
      for (const Segment& s : r.executed[core].segments()) {
        d.add(core);
        d.add_bits(s.t0);
        d.add_bits(s.t1);
        d.add(s.job);
        d.add_bits(s.speed);
        ++out.executed_segments;
      }
    }
    out.executed_digest = d.h;
  }
  return out;
}

WorkloadConfig wl(double rate, double seconds, std::uint64_t seed) {
  WorkloadConfig w;
  w.arrival_rate = rate;
  w.horizon_ms = seconds * 1000.0;
  w.seed = seed;
  return w;
}

std::vector<GoldenCase> golden_cases() {
  std::vector<GoldenCase> out;
  const auto add = [&out](GoldenCase c) { out.push_back(std::move(c)); };

  // The paper's §V-B setup (fig08 point: 16 cores, H = 320 W).
  add(run_case("paper_h320_r150", EngineConfig{}, wl(150.0, 20.0, 1),
               make_des_policy()));
  {
    // Overload + tight budget: shedding, rigid-discard loop untouched.
    EngineConfig cfg;
    cfg.power_budget = 80.0;
    WorkloadConfig w = wl(260.0, 15.0, 2);
    w.partial_fraction = 0.7;  // mixes rigid jobs into the §V-D loop
    add(run_case("overload_h80_r260_rigid30", cfg, w, make_des_policy()));
  }
  {
    // Resume ablation: baseline-aware Quality-OPT + YDS planning path.
    EngineConfig cfg;
    cfg.resume_passed_jobs = true;
    add(run_case("resume_r180", cfg, wl(180.0, 15.0, 3), make_des_policy()));
  }
  {
    // Counter-only triggers (the 10M-cell coalesced configuration).
    EngineConfig cfg;
    cfg.idle_trigger = false;
    cfg.counter_trigger = 8;
    cfg.quantum_ms = 100.0;
    add(run_case("counter_only_r150", cfg, wl(150.0, 20.0, 4),
                 make_des_policy()));
  }
  {
    DesOptions d;
    d.arch = Architecture::SDVFS;
    add(run_case("sdvfs_r150", EngineConfig{}, wl(150.0, 15.0, 5),
                 make_des_policy(d)));
  }
  {
    DesOptions d;
    d.arch = Architecture::NoDVFS;
    add(run_case("nodvfs_r120", EngineConfig{}, wl(120.0, 15.0, 6),
                 make_des_policy(d)));
  }
  {
    // Discrete speed levels (§V-F rectification + quantization).
    EngineConfig cfg;
    cfg.max_core_speed = DiscreteSpeedSet::opteron2380().max_speed();
    DesOptions d;
    d.speed_levels = DiscreteSpeedSet::opteron2380();
    add(run_case("discrete_r150", cfg, wl(150.0, 15.0, 7),
                 make_des_policy(d)));
  }
  {
    // big.LITTLE caps + capacity-aware distribution.
    EngineConfig cfg;
    cfg.per_core_max_speed.assign(16, 3.0);
    for (int i = 0; i < 8; ++i) cfg.per_core_max_speed[i] = 1.2;
    DesOptions d;
    d.capacity_aware_distribution = true;
    add(run_case("biglittle_r150", cfg, wl(150.0, 15.0, 8),
                 make_des_policy(d)));
  }
  {
    // Service classes: weighted volume allocation.
    WorkloadConfig w = wl(150.0, 15.0, 9);
    w.premium_fraction = 0.2;
    DesOptions d;
    d.weighted = true;
    add(run_case("weighted_r150", EngineConfig{}, w, make_des_policy(d)));
  }
  {
    DesOptions d;
    d.eager_execution = true;
    add(run_case("eager_r180", EngineConfig{}, wl(180.0, 15.0, 10),
                 make_des_policy(d)));
  }
  {
    // Ablations of the distribution + power-split components.
    DesOptions d;
    d.plain_round_robin = true;
    d.static_power = true;
    add(run_case("plainrr_static_r200", EngineConfig{}, wl(200.0, 15.0, 11),
                 make_des_policy(d)));
  }
  {
    // FCFS baseline with WF power (idle-trigger-driven engine path).
    BaselineOptions b;
    b.power = PowerDistribution::WaterFilling;
    add(run_case("fcfs_wf_r150", baseline_engine_config(EngineConfig{}),
                 wl(150.0, 15.0, 12), make_baseline_policy(b)));
  }
  {
    // Scheduled budget steps (brownout and recovery): each step forces a
    // replan against the new H mid-plan.
    EngineConfig cfg;
    cfg.budget_steps = {{4000.0, 160.0}, {8000.0, 480.0}, {11000.0, 240.0}};
    add(run_case("budget_steps_r180", cfg, wl(180.0, 15.0, 13),
                 make_des_policy()));
  }
  {
    // The overnight_trough power model: static draw b = 2 W, a sleep
    // C-state at 0.2 W with a 1 ms / 0.05 J wake, race-to-idle on. Runs
    // the residency, wake and parking branches of the engine, and pins
    // the executed segments (record_execution on) as a digest.
    EngineConfig cfg;
    cfg.cores = 8;
    cfg.power_budget = 160.0;
    cfg.quantum_ms = 200.0;
    cfg.power_model.b = 2.0;
    cfg.power_model.sleep_enabled = true;
    cfg.power_model.sleep_power = 0.2;
    cfg.power_model.wake_latency_ms = 1.0;
    cfg.power_model.wake_energy_j = 0.05;
    WorkloadConfig w = wl(20.0, 20.0, 23);
    w.deadline_ms = 2000.0;
    add(run_case("trough_sleep_race_r20", cfg, w, make_des_policy(),
                 /*record_execution=*/true));
  }
  return out;
}

/// Every pinned line of one case: its RunStats fields by bit pattern,
/// then (record_execution runs only) the executed-segment digest with
/// the segment count.
std::vector<test::GoldenRow> rows(const GoldenCase& c) {
  std::vector<test::GoldenRow> out;
  for (const auto& [field, value] : test::run_stats_fields(c.stats)) {
    out.push_back(test::bits_row(c.name, field, value));
  }
  if (c.executed_digest) {
    out.push_back(test::digest_row(c.name, "executed_digest",
                                   *c.executed_digest, c.executed_segments));
  }
  return out;
}

TEST(SimEngineGolden, RunStatsBitwiseStable) {
  std::vector<test::GoldenRow> all;
  for (const GoldenCase& c : golden_cases()) {
    for (test::GoldenRow& r : rows(c)) all.push_back(std::move(r));
  }
  test::check_golden_table(QES_GOLDEN_FILE, all);
}

// The pinned cases must actually reach the branches they are there for.
TEST(SimEngineGolden, CasesCoverTheirBranches) {
  const std::vector<GoldenCase> cases = golden_cases();
  const auto find = [&cases](const std::string& name) -> const GoldenCase& {
    for (const GoldenCase& c : cases) {
      if (c.name == name) return c;
    }
    ADD_FAILURE() << "no golden case " << name;
    return cases.front();
  };
  const GoldenCase& trough = find("trough_sleep_race_r20");
  EXPECT_GT(trough.stats.core_wakes, 0U);
  EXPECT_GT(trough.stats.sleep_ms, 0.0);
  EXPECT_GT(trough.stats.active_idle_ms, 0.0);
  EXPECT_GT(trough.executed_segments, 0U);
  // Residency partitions core-time: active + active_idle + sleep ==
  // cores * end_time.
  EXPECT_NEAR(trough.stats.active_ms + trough.stats.active_idle_ms +
                  trough.stats.sleep_ms,
              8.0 * trough.stats.end_time, 1e-6 * trough.stats.end_time);
}

}  // namespace
