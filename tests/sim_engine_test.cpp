#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include "multicore/baseline_scheduler.hpp"
#include "multicore/des_scheduler.hpp"
#include "obs/trace.hpp"
#include "workload/generator.hpp"

namespace qes {
namespace {

// A policy exposing a hand-written plan function, used to drive the
// engine deterministically in unit tests.
class ScriptedPolicy final : public SchedulingPolicy {
 public:
  using Fn = std::function<void(Engine&)>;
  explicit ScriptedPolicy(Fn fn) : fn_(std::move(fn)) {}
  void replan(Engine& eng) override { fn_(eng); }
  [[nodiscard]] std::string name() const override { return "scripted"; }

 private:
  Fn fn_;
};

EngineConfig small_config(int cores = 2, Watts budget = 40.0) {
  EngineConfig cfg;
  cfg.cores = cores;
  cfg.power_budget = budget;
  cfg.quantum_ms = 100.0;
  cfg.counter_trigger = 0;
  return cfg;
}

TEST(Engine, SingleJobCompletesAndAccountsEnergy) {
  std::vector<Job> jobs = {
      {.id = 1, .release = 0.0, .deadline = 150.0, .demand = 100.0}};
  auto policy = std::make_unique<ScriptedPolicy>([](Engine& eng) {
    if (eng.waiting().empty()) return;
    const JobId id = eng.waiting().front();
    eng.assign_to_core(id, 0);
    Schedule plan;
    plan.push({eng.now(), eng.now() + 100.0, id, 1.0});  // 100 units @ 1 GHz
    eng.set_core_plan(0, std::move(plan));
  });
  Engine engine(small_config(), jobs, std::move(policy));
  auto result = engine.run();
  EXPECT_EQ(result.stats.jobs_satisfied, 1u);
  // 1 GHz => 5 W for 0.1 s => 0.5 J.
  EXPECT_NEAR(result.stats.dynamic_energy, 0.5, 1e-9);
  EXPECT_NEAR(result.stats.normalized_quality, 1.0, 1e-9);
  EXPECT_NEAR(result.jobs[0].processed, 100.0, 1e-6);
  ASSERT_EQ(result.executed.size(), 2u);
  EXPECT_NEAR(result.executed[0].volume_of(1), 100.0, 1e-6);
}

TEST(Engine, UnassignedJobExpiresWithZeroQuality) {
  std::vector<Job> jobs = {
      {.id = 1, .release = 0.0, .deadline = 150.0, .demand = 100.0}};
  auto policy = std::make_unique<ScriptedPolicy>([](Engine&) {});
  Engine engine(small_config(), jobs, std::move(policy));
  auto result = engine.run();
  EXPECT_EQ(result.stats.jobs_zero, 1u);
  EXPECT_NEAR(result.stats.total_quality, 0.0, 1e-12);
  EXPECT_NEAR(result.jobs[0].finalized_at, 150.0, 1e-6);
}

TEST(Engine, PartialExecutionYieldsPartialQuality) {
  std::vector<Job> jobs = {
      {.id = 1, .release = 0.0, .deadline = 150.0, .demand = 200.0}};
  auto policy = std::make_unique<ScriptedPolicy>([](Engine& eng) {
    if (eng.waiting().empty()) return;
    const JobId id = eng.waiting().front();
    eng.assign_to_core(id, 0);
    Schedule plan;
    plan.push({eng.now(), eng.now() + 50.0, id, 1.0});  // only 50 units
    eng.set_core_plan(0, std::move(plan));
  });
  Engine engine(small_config(), jobs, std::move(policy));
  auto result = engine.run();
  EXPECT_EQ(result.stats.jobs_partial, 1u);
  const auto f = QualityFunction::exponential(0.003);
  EXPECT_NEAR(result.stats.total_quality, f(50.0), 1e-9);
  // Passed-over partial job is finalized when the plan moves past it,
  // not at its deadline.
  EXPECT_NEAR(result.jobs[0].finalized_at, 50.0, 1e-6);
}

TEST(Engine, RigidJobGetsZeroQualityWhenIncomplete) {
  std::vector<Job> jobs = {
      {.id = 1, .release = 0.0, .deadline = 150.0, .demand = 200.0,
       .partial_ok = false}};
  auto policy = std::make_unique<ScriptedPolicy>([](Engine& eng) {
    if (eng.waiting().empty()) return;
    const JobId id = eng.waiting().front();
    eng.assign_to_core(id, 0);
    Schedule plan;
    plan.push({eng.now(), eng.now() + 50.0, id, 1.0});
    eng.set_core_plan(0, std::move(plan));
  });
  Engine engine(small_config(), jobs, std::move(policy));
  auto result = engine.run();
  EXPECT_NEAR(result.stats.total_quality, 0.0, 1e-12);
  EXPECT_EQ(result.stats.jobs_discarded_rigid, 1u);
}

TEST(Engine, IdlePowerIsIntegratedToTheLastDeadline) {
  std::vector<Job> jobs = {
      {.id = 1, .release = 0.0, .deadline = 1000.0, .demand = 10.0}};
  auto policy = std::make_unique<ScriptedPolicy>([](Engine& eng) {
    for (int i = 0; i < eng.cores(); ++i) {
      eng.set_core_idle_power(i, 10.0);  // No-DVFS style constant burn
    }
    if (eng.waiting().empty()) return;
    const JobId id = eng.waiting().front();
    eng.assign_to_core(id, 0);
    Schedule plan;
    plan.push({eng.now(), eng.now() + 10.0, id, 1.0});
    eng.set_core_plan(0, std::move(plan));
  });
  Engine engine(small_config(), jobs, std::move(policy));
  auto result = engine.run();
  // Core 0: 5 W for 10 ms + 10 W for 990 ms; core 1: 10 W for 1000 ms.
  const double expected = (5.0 * 0.01) + (10.0 * 0.99) + (10.0 * 1.0);
  EXPECT_NEAR(result.stats.dynamic_energy, expected, 1e-6);
  EXPECT_NEAR(result.stats.end_time, 1000.0, 1e-9);
}

// Completions at one instant finalize in ascending core order, the
// order the attribution plane sums in, whatever the job ids.
TEST(Engine, SimultaneousCompletionsFinalizeInCoreOrder) {
  std::vector<Job> jobs = {
      {.id = 1, .release = 0.0, .deadline = 150.0, .demand = 100.0},
      {.id = 2, .release = 0.0, .deadline = 150.0, .demand = 100.0}};
  obs::TraceRing ring(1024);
  EngineConfig cfg = small_config();
  cfg.trace = &ring;
  auto policy = std::make_unique<ScriptedPolicy>([](Engine& eng) {
    if (eng.waiting().size() < 2) return;
    for (const auto& [id, core] :
         {std::pair{JobId{1}, 1}, std::pair{JobId{2}, 0}}) {
      eng.assign_to_core(id, core);
      Schedule plan;
      plan.push({eng.now(), eng.now() + 100.0, id, 1.0});
      eng.set_core_plan(core, plan);
    }
  });
  Engine engine(cfg, jobs, std::move(policy));
  ASSERT_EQ(engine.run().stats.jobs_satisfied, 2u);
  std::vector<JobId> finalized;
  for (const obs::TraceEvent& e : ring.drain()) {
    if (e.kind == obs::TraceEvent::Kind::Finalize) finalized.push_back(e.job);
  }
  EXPECT_EQ(finalized, (std::vector<JobId>{2, 1}));
}

// A replan that empties a core's plan mid-segment and arms the sleep
// transition leaves a live core with nothing pending: the next substep
// must still park it, though no segment of it ends there.
TEST(Engine, EmptyPlanWithSleepParksALiveCore) {
  std::vector<Job> jobs = {
      {.id = 1, .release = 0.0, .deadline = 1000.0, .demand = 100.0}};
  EngineConfig cfg = small_config();
  cfg.power_model.b = 2.0;
  cfg.power_model.sleep_enabled = true;
  cfg.power_model.sleep_power = 0.2;
  int calls = 0;
  auto policy = std::make_unique<ScriptedPolicy>([&calls](Engine& eng) {
    ++calls;
    if (calls == 1) {  // t = 0
      const JobId id = eng.waiting().front();
      eng.assign_to_core(id, 0);
      Schedule plan;
      plan.push({eng.now(), 900.0, id, 0.1});
      eng.set_core_plan(0, plan);
    } else if (calls == 2) {  // t = 100, the first quantum
      eng.set_core_plan(0, Schedule{});
      eng.set_core_sleep(0, true);
    }
  });
  Engine engine(cfg, jobs, std::move(policy));
  const RunStats s = engine.run().stats;
  ASSERT_GE(calls, 2);
  // Core 0 runs [0, 100], idles awake through the substep [100, 200]
  // that ends at the next quantum, then sleeps to the last deadline;
  // core 1 idles awake throughout.
  EXPECT_NEAR(s.active_ms, 100.0, 1e-9);
  EXPECT_NEAR(s.active_idle_ms, 1100.0, 1e-9);
  EXPECT_NEAR(s.sleep_ms, 800.0, 1e-9);
  EXPECT_EQ(s.core_wakes, 0u);
}

TEST(Engine, PowerBudgetViolationDies) {
  std::vector<Job> jobs = {
      {.id = 1, .release = 0.0, .deadline = 150.0, .demand = 100.0}};
  auto policy = std::make_unique<ScriptedPolicy>([](Engine& eng) {
    if (eng.waiting().empty()) return;
    const JobId id = eng.waiting().front();
    eng.assign_to_core(id, 0);
    Schedule plan;
    plan.push({eng.now(), eng.now() + 20.0, id, 5.0});  // 125 W > 40 W
    eng.set_core_plan(0, std::move(plan));
  });
  Engine engine(small_config(), jobs, std::move(policy));
  EXPECT_DEATH(engine.run(), "power exceeded");
}

TEST(Engine, PlanPastDeadlineDies) {
  std::vector<Job> jobs = {
      {.id = 1, .release = 0.0, .deadline = 150.0, .demand = 400.0}};
  auto policy = std::make_unique<ScriptedPolicy>([](Engine& eng) {
    if (eng.waiting().empty()) return;
    const JobId id = eng.waiting().front();
    eng.assign_to_core(id, 0);
    Schedule plan;
    plan.push({eng.now(), eng.now() + 200.0, id, 2.0});
    eng.set_core_plan(0, std::move(plan));
  });
  Engine engine(small_config(), jobs, std::move(policy));
  EXPECT_DEATH(engine.run(), "deadline");
}

TEST(Engine, AssigningNonWaitingJobDies) {
  std::vector<Job> jobs = {
      {.id = 1, .release = 0.0, .deadline = 150.0, .demand = 100.0}};
  auto policy = std::make_unique<ScriptedPolicy>([](Engine& eng) {
    if (eng.waiting().empty()) return;
    eng.assign_to_core(1, 0);
    eng.assign_to_core(1, 1);  // already assigned
  });
  Engine engine(small_config(), jobs, std::move(policy));
  EXPECT_DEATH(engine.run(), "waiting");
}

TEST(EngineConfig, CoreSpeedCapValidatesItsArguments) {
  EngineConfig cfg;
  cfg.cores = 4;
  cfg.max_core_speed = 2.5;
  EXPECT_DOUBLE_EQ(cfg.core_speed_cap(0), 2.5);
  cfg.per_core_max_speed = {2.0, 2.0, 1.0, 1.0};
  EXPECT_DOUBLE_EQ(cfg.core_speed_cap(3), 1.0);
  EXPECT_DEATH((void)cfg.core_speed_cap(4), "out of range");
  EXPECT_DEATH((void)cfg.core_speed_cap(-1), "out of range");
  // A partially filled per-core vector must die, not silently index.
  cfg.per_core_max_speed = {2.0, 2.0};
  EXPECT_DEATH((void)cfg.core_speed_cap(3), "one entry per core");
  EXPECT_DEATH((void)cfg.core_speed_cap(0), "one entry per core");
}

TEST(Engine, PerCoreCapSizeMismatchDies) {
  EngineConfig cfg = small_config(2);
  cfg.per_core_max_speed = {2.0};  // 2 cores, 1 entry
  std::vector<Job> jobs = {
      {.id = 1, .release = 0.0, .deadline = 150.0, .demand = 10.0}};
  EXPECT_DEATH(Engine(cfg, jobs,
                      std::make_unique<ScriptedPolicy>([](Engine&) {})),
               "per_core_max_speed");
}

TEST(Engine, PerCoreCapViolationDies) {
  EngineConfig cfg = small_config(2);
  cfg.per_core_max_speed = {2.0, 0.5};
  std::vector<Job> jobs = {
      {.id = 1, .release = 0.0, .deadline = 150.0, .demand = 10.0}};
  auto policy = std::make_unique<ScriptedPolicy>([](Engine& eng) {
    if (eng.waiting().empty()) return;
    eng.assign_to_core(1, 1);
    Schedule plan;
    plan.push({eng.now(), eng.now() + 10.0, 1, 1.0});  // cap is 0.5
    eng.set_core_plan(1, std::move(plan));
  });
  Engine engine(cfg, jobs, std::move(policy));
  EXPECT_DEATH(engine.run(), "hardware cap");
}

TEST(Engine, RequiresDenseIds) {
  std::vector<Job> jobs = {
      {.id = 7, .release = 0.0, .deadline = 150.0, .demand = 100.0}};
  EXPECT_DEATH(Engine(small_config(), jobs,
                      std::make_unique<ScriptedPolicy>([](Engine&) {})),
               "dense ids");
}

TEST(Engine, ResumeModeKeepsPassedJobsAlive) {
  EngineConfig cfg = small_config();
  cfg.resume_passed_jobs = true;
  std::vector<Job> jobs = {
      {.id = 1, .release = 0.0, .deadline = 150.0, .demand = 200.0}};
  int replans = 0;
  auto policy = std::make_unique<ScriptedPolicy>([&replans](Engine& eng) {
    ++replans;
    if (!eng.waiting().empty()) {
      eng.assign_to_core(eng.waiting().front(), 0);
    }
    if (eng.assigned(0).empty()) return;
    const JobId id = eng.assigned(0).front();
    const JobState& st = eng.job(id);
    // Plan 50 units per quantum; the job survives being passed over.
    const Work chunk = std::min(50.0, st.job.demand - st.processed);
    if (chunk <= 0.0) return;
    Schedule plan;
    plan.push({eng.now(), eng.now() + chunk, id, 1.0});
    eng.set_core_plan(0, std::move(plan));
  });
  Engine engine(cfg, jobs, std::move(policy));
  auto result = engine.run();
  // Quantum fires at 100ms; first (idle-trigger) replan at arrival plans
  // 50 units [0,50]; second at 100ms plans 50 more; deadline at 150
  // finalizes with 100 processed.
  EXPECT_NEAR(result.jobs[0].processed, 100.0, 1e-6);
  EXPECT_EQ(result.stats.jobs_partial, 1u);
  EXPECT_GE(replans, 2);
}

TEST(Engine, LatencyStatisticsForSatisfiedJobs) {
  // Two jobs completing at known times; the partial third is excluded
  // from latency stats.
  std::vector<Job> jobs = {
      {.id = 1, .release = 0.0, .deadline = 150.0, .demand = 50.0},
      {.id = 2, .release = 0.0, .deadline = 150.0, .demand = 50.0},
      {.id = 3, .release = 500.0, .deadline = 650.0, .demand = 500.0}};
  auto policy = std::make_unique<ScriptedPolicy>([](Engine& eng) {
    while (!eng.waiting().empty()) {
      eng.assign_to_core(eng.waiting().front(), 0);
    }
    Schedule plan;
    Time t = eng.now();
    for (JobId id : eng.assigned(0)) {
      const JobState& st = eng.job(id);
      const Work rem = st.job.demand - st.processed;
      const Work exec = std::min(rem, (st.job.deadline - t) * 1.0);
      if (exec <= 0.0) continue;
      plan.push({t, t + exec / 1.0, id, 1.0});
      t += exec / 1.0;
    }
    eng.set_core_plan(0, std::move(plan));
  });
  EngineConfig cfg = small_config(1);
  Engine engine(cfg, jobs, std::move(policy));
  auto result = engine.run();
  // Job 1 finishes at 50, job 2 at 100; job 3 is partial (150 of 500).
  EXPECT_EQ(result.stats.jobs_satisfied, 2u);
  EXPECT_NEAR(result.stats.mean_latency, 75.0, 1e-6);
  EXPECT_NEAR(result.stats.p50_latency, 100.0, 1e-6);
  EXPECT_NEAR(result.stats.p99_latency, 100.0, 1e-6);
}

TEST(Engine, LatencyZeroWhenNothingSatisfied) {
  std::vector<Job> jobs = {
      {.id = 1, .release = 0.0, .deadline = 150.0, .demand = 100.0}};
  Engine engine(small_config(), jobs,
                std::make_unique<ScriptedPolicy>([](Engine&) {}));
  auto result = engine.run();
  EXPECT_DOUBLE_EQ(result.stats.mean_latency, 0.0);
  EXPECT_DOUBLE_EQ(result.stats.p99_latency, 0.0);
}

TEST(Engine, ConservationAcrossFullDesRun) {
  WorkloadConfig wl;
  wl.arrival_rate = 150.0;
  wl.horizon_ms = 10'000.0;
  auto jobs = generate_websearch_jobs(wl);
  EngineConfig cfg;  // paper defaults: 16 cores, 320 W
  Engine engine(cfg, jobs, make_des_policy());
  auto result = engine.run();

  // Volume conservation: per-job processed == executed segment volumes.
  std::map<JobId, Work> executed;
  for (const Schedule& s : result.executed) {
    for (const auto& [id, v] : s.volumes()) executed[id] += v;
  }
  for (const JobState& st : result.jobs) {
    const Work ex = executed.count(st.job.id) ? executed[st.job.id] : 0.0;
    EXPECT_NEAR(ex, st.processed, 1e-4 + 1e-6 * st.job.demand);
    EXPECT_LE(st.processed, st.job.demand + 1e-5);
    EXPECT_GE(st.quality, 0.0);
  }

  // Energy conservation: integrated energy == sum over executed segments
  // (DES on C-DVFS has zero idle power).
  Joules seg_energy = 0.0;
  for (const Schedule& s : result.executed) {
    seg_energy += s.dynamic_energy(cfg.power_model);
  }
  EXPECT_NEAR(seg_energy, result.stats.dynamic_energy,
              1e-6 * result.stats.dynamic_energy + 1e-6);

  // Budget respected.
  EXPECT_LE(result.stats.peak_power, cfg.power_budget * (1.0 + 1e-6) + 1e-6);
  // Quality normalized into [0, 1].
  EXPECT_GE(result.stats.normalized_quality, 0.0);
  EXPECT_LE(result.stats.normalized_quality, 1.0 + 1e-9);
  EXPECT_EQ(result.stats.jobs_total, jobs.size());
  EXPECT_EQ(result.stats.jobs_satisfied + result.stats.jobs_partial +
                result.stats.jobs_zero,
            jobs.size());
}

}  // namespace
}  // namespace qes
