// Tests for the qesd runtime building blocks (virtual clock,
// RuntimeCore's planned power) and the live multi-threaded server. The
// live tests run time-dilated so a 30-virtual-second serve finishes in
// ~2 wall seconds.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/prng.hpp"
#include "golden_util.hpp"
#include "policy/des_planner.hpp"
#include "runtime/clock.hpp"
#include "runtime/core.hpp"
#include "runtime/server.hpp"
#include "workload/demand.hpp"

namespace qes::runtime {
namespace {

using std::chrono::milliseconds;

TEST(VirtualClock, AdvancesAtScale) {
  VirtualClock clock(50.0);
  std::this_thread::sleep_for(milliseconds(20));
  const Time t = clock.now();
  // 20 wall ms at scale 50 = 1000 virtual ms; allow generous scheduling
  // slack but require clear dilation.
  EXPECT_GE(t, 500.0);
  EXPECT_GT(clock.now(), t - 1e-9);  // monotone
  EXPECT_DOUBLE_EQ(clock.scale(), 50.0);
}

TEST(VirtualClock, WallDeadlineInvertsNow) {
  VirtualClock clock(8.0);
  const Time target = clock.now() + 400.0;  // 50 wall ms ahead
  std::this_thread::sleep_until(clock.wall_deadline(target));
  EXPECT_GE(clock.now(), target - 1.0);
}

// RuntimeCore keeps the a·s^β of each core's current plan segment
// instead of evaluating it per substep. planned_power must still read,
// bit for bit, dynamic_power of the segment running now: after an
// install, after a segment completes, after a replan swaps the plan
// mid-segment, and 0 once the plan runs out.
TEST(RuntimeCore, PlannedPowerFollowsTheCurrentSegment) {
  RuntimeConfig rc;
  rc.cores = 1;
  rc.quantum_ms = 0.0;
  RuntimeCore core(rc);
  const PowerModel& pm = core.config().power_model;
  const auto same_bits = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };
  // The segment of the installed plan that runs at now().
  const auto current_speed = [&] {
    for (const Segment& s : core.plan(0).segments()) {
      if (s.t0 <= core.now() && core.now() < s.t1) return s.speed;
    }
    ADD_FAILURE() << "no segment runs at " << core.now();
    return 0.0;
  };
  const auto expect_power_of_current_segment = [&](const char* when) {
    const CoreCounters c = core.counters();
    const Watts expected = pm.dynamic_power(current_speed());
    EXPECT_TRUE(same_bits(c.planned_power, expected))
        << when << ": " << c.planned_power << " != " << expected;
    EXPECT_EQ(core.live_jobs(), c.waiting + c.assigned) << when;
  };

  // YDS runs the tight job at 5 GHz over [0, 10), then the loose one at
  // 10/90 GHz until 100: two segments at two speeds.
  core.submit({.id = 1, .release = 0.0, .deadline = 10.0, .demand = 50.0});
  core.submit({.id = 2, .release = 0.0, .deadline = 100.0, .demand = 10.0});
  core.replan();
  ASSERT_EQ(core.plan(0).size(), 2u);
  ASSERT_NE(core.plan(0)[0].speed, core.plan(0)[1].speed);

  core.advance(5.0);
  expect_power_of_current_segment("inside the first segment");

  core.advance(20.0);
  EXPECT_EQ(core.job(1).phase, JobState::Phase::Finalized);
  expect_power_of_current_segment("after the first segment ended");
  const Speed before_replan = current_speed();

  // A third job on the same core: the replan swaps in a faster plan
  // while the second job's segment is running.
  core.submit({.id = 3, .release = 20.0, .deadline = 100.0, .demand = 80.0});
  core.replan();
  ASSERT_NE(current_speed(), before_replan);
  expect_power_of_current_segment("after a replan mid-segment");

  core.advance(150.0);
  ASSERT_TRUE(core.all_finalized());
  const CoreCounters done = core.counters();
  EXPECT_TRUE(same_bits(done.planned_power, 0.0)) << done.planned_power;
  EXPECT_EQ(core.live_jobs(), 0u);
}

// ---- Kept replans and the cached power request ----
//
// A replan with no job waiting, on the state the last replan planned
// from, keeps the installed plans when the planner certifies them under
// the current H; power_request() is recomputed only once the state
// generation moves. Both must be what a fresh computation gives.

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

::testing::AssertionResult same_plan(const Schedule& got,
                                     const Schedule& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << got.size() << " segments != " << want.size();
  }
  for (std::size_t k = 0; k < got.size(); ++k) {
    if (got[k].job != want[k].job || !same_bits(got[k].t0, want[k].t0) ||
        !same_bits(got[k].t1, want[k].t1) ||
        !same_bits(got[k].speed, want[k].speed)) {
      return ::testing::AssertionFailure() << "segment " << k << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

// The overnight_trough model (race-to-idle at s* = 0.6 GHz) and b = 0.
struct KeptModel {
  const char* name;
  PowerModel pm;
};

std::vector<KeptModel> kept_models() {
  PowerModel trough = default_power_model();
  trough.b = 2.0;
  trough.sleep_enabled = true;
  trough.sleep_power = 0.2;
  trough.wake_latency_ms = 1.0;
  trough.wake_energy_j = 0.05;
  return {{"trough", trough}, {"b0", default_power_model()}};
}

// Four cores at H = 40 W: every step-2 plan below runs under 0.4 GHz, so
// 40 W and 28 W both take the fast path with H/m far past the race
// share margin (P(s*) = 1.8 W).
constexpr Watts kH = 40.0;
constexpr Watts kH2 = 28.0;

RuntimeConfig kept_config(const PowerModel& pm) {
  RuntimeConfig rc;
  rc.cores = 4;
  rc.power_budget = kH;
  rc.power_model = pm;
  rc.quantum_ms = 0.0;
  return rc;
}

// Eight light jobs at t = 0; job 5 is rigid and needs 0.3 GHz.
void submit_first_batch(RuntimeCore& core) {
  const Work demand[] = {6.0, 10.0, 14.0, 8.0, 60.0, 12.0, 9.0, 20.0};
  const Time deadline[] = {80.0, 120.0, 160.0, 200.0,
                           200.0, 240.0, 300.0, 400.0};
  for (JobId id = 1; id <= 8; ++id) {
    core.submit({.id = id,
                 .release = 0.0,
                 .deadline = deadline[id - 1],
                 .demand = demand[id - 1],
                 .partial_ok = id != 5});
  }
}

void submit_second_batch(RuntimeCore& core, Time t) {
  for (JobId id = 9; id <= 11; ++id) {
    core.submit({.id = id,
                 .release = t,
                 .deadline = 400.0 + 10.0 * static_cast<double>(id),
                 .demand = 4.0 * static_cast<double>(id - 7)});
  }
}

void expect_same_state(const RuntimeCore& a, const RuntimeCore& b,
                       const char* when) {
  for (int i = 0; i < a.config().cores; ++i) {
    EXPECT_TRUE(same_plan(a.plan(i), b.plan(i))) << when << " core " << i;
    EXPECT_EQ(a.core_asleep(i), b.core_asleep(i)) << when << " core " << i;
  }
  EXPECT_TRUE(same_bits(a.power_request(), b.power_request())) << when;
  EXPECT_TRUE(same_bits(a.planned_power_now(), b.planned_power_now()))
      << when;
}

TEST(RuntimeCore, KeptReplanMatchesAReplanUnderTheNewBudget) {
  for (const KeptModel& model : kept_models()) {
    // Core A replans at H, moves to H' and replans: the kept path.
    // Core B moves to H' first and replans twice.
    RuntimeCore a(kept_config(model.pm));
    RuntimeCore b(kept_config(model.pm));
    for (RuntimeCore* core : {&a, &b}) {
      submit_first_batch(*core);
      core->replan();
      core->advance(30.0);
    }
    a.replan();
    a.set_power_budget(kH2);
    a.replan();
    b.set_power_budget(kH2);
    b.replan();
    b.replan();
    expect_same_state(a, b, model.name);

    // New work for both, then the same two sequences back to H.
    for (RuntimeCore* core : {&a, &b}) {
      core->advance(60.0);
      submit_second_batch(*core, 60.0);
      core->replan();
      core->advance(100.0);
    }
    a.replan();
    a.set_power_budget(kH);
    a.replan();
    b.set_power_budget(kH);
    b.replan();
    b.replan();
    expect_same_state(a, b, model.name);

    for (RuntimeCore* core : {&a, &b}) core->advance(core->horizon());
    ASSERT_TRUE(a.all_finalized() && b.all_finalized()) << model.name;
    const RunStats sa = a.finish(a.horizon());
    const RunStats sb = b.finish(b.horizon());
    EXPECT_GT(sa.jobs_satisfied, 0u) << model.name;
    EXPECT_EQ(sa.replans, 6u) << model.name;
    const auto fa = test::run_stats_fields(sa);
    const auto fb = test::run_stats_fields(sb);
    ASSERT_EQ(fa.size(), fb.size());
    for (std::size_t k = 0; k < fa.size(); ++k) {
      EXPECT_TRUE(same_bits(fa[k].second, fb[k].second))
          << model.name << " " << fa[k].first << ": " << fa[k].second
          << " != " << fb[k].second;
    }
  }
}

// The planner's view of `core`, rebuilt from its observers.
policy::WorldView observed_view(const RuntimeCore& core) {
  const RuntimeConfig& rc = core.config();
  policy::WorldView v;
  v.reset(core.now(), rc.power_budget, static_cast<std::size_t>(rc.cores));
  v.power_model = &rc.power_model;
  v.quality = &rc.quality;
  for (policy::CoreView& c : v.cores) c.speed_cap = rc.max_core_speed;
  for (JobId id = 1; id <= core.admitted(); ++id) {
    const JobState& st = core.job(id);
    if (st.phase != JobState::Phase::Assigned) continue;
    v.cores[static_cast<std::size_t>(st.core)].jobs.push_back(
        {.id = id,
         .deadline = st.job.deadline,
         .demand = st.job.demand,
         .processed = st.processed,
         .weight = st.job.weight,
         .partial_ok = st.job.partial_ok});
  }
  return v;
}

TEST(RuntimeCore, PowerRequestAndReplansFollowEveryStateChange) {
  for (const KeptModel& model : kept_models()) {
    RuntimeCore core(kept_config(model.pm));
    const auto expect_fresh_request = [&](const char* when) {
      policy::DesPlanner fresh;
      const Watts want = fresh.total_power_request(observed_view(core));
      EXPECT_TRUE(same_bits(core.power_request(), want))
          << model.name << " " << when << ": " << core.power_request()
          << " != " << want;
    };
    // A replan with no job waiting installs what a fresh planner plans
    // on the view it starts from, kept or not.
    const auto replan_and_check = [&](const char* when) {
      ASSERT_EQ(core.counters().waiting, 0u) << when;
      policy::WorldView v = observed_view(core);
      policy::DesPlanner fresh;
      policy::PlanOutcome want;
      fresh.plan_c_dvfs(v, policy::PlanOptions{}, want);
      core.replan();
      for (int i = 0; i < core.config().cores; ++i) {
        EXPECT_TRUE(
            same_plan(core.plan(i), want.cores[static_cast<std::size_t>(i)].plan))
            << model.name << " " << when << " core " << i;
      }
    };

    submit_first_batch(core);
    expect_fresh_request("submitted, none assigned");
    core.replan();  // assign_to_core
    expect_fresh_request("assigned");
    // 1 ms in, no job has finished: only the clock and the processed
    // volumes moved.
    core.advance(1.0);
    ASSERT_EQ(core.counters().finalized, 0u) << model.name;
    expect_fresh_request("mid-segment advance");
    core.advance(30.0);
    replan_and_check("after an advance");
    expect_fresh_request("after an advance");
    core.set_power_budget(kH2);
    replan_and_check("under a new budget");
    // A budget no fast path fits: the rigid job 5 cannot finish and is
    // discarded (finalize), then the request must drop it.
    core.set_power_budget(0.05);
    expect_fresh_request("before the discard");
    replan_and_check("discarding");
    EXPECT_EQ(core.job(5).phase, JobState::Phase::Finalized) << model.name;
    expect_fresh_request("after the discard");
    replan_and_check("after the discard");
    // Abandoning every job leaves nothing to request.
    core.set_power_budget(kH);
    replan_and_check("back at H");
    expect_fresh_request("before abandoning");
    const std::vector<AbandonedJob> orphans = core.abandon_unfinalized();
    EXPECT_FALSE(orphans.empty()) << model.name;
    expect_fresh_request("abandoned");
    EXPECT_EQ(core.power_request(), 0.0) << model.name;
    replan_and_check("abandoned");
  }
}

ServerConfig test_server_config(double time_scale) {
  ServerConfig sc;
  sc.model.cores = 8;
  sc.model.power_budget = 160.0;
  sc.time_scale = time_scale;
  sc.deadline_ms = 150.0;
  sc.metrics_interval_ms = 25.0;
  return sc;
}

TEST(Server, ServesDirectSubmissionsToCompletion) {
  Server server(test_server_config(8.0));
  server.start();
  // Light enough (12 x 100 units inside one 150 ms window on 8 cores at
  // 160 W) that the planner completes jobs rather than spreading partial
  // volume across everything.
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(server.submit({.demand = 100.0}, milliseconds(100)));
  }
  const RunStats stats = server.drain_and_stop();
  EXPECT_EQ(stats.jobs_total, 12u);
  EXPECT_GT(stats.total_quality, 0.0);
  EXPECT_GT(stats.jobs_satisfied, 0u);
  EXPECT_LE(stats.peak_power, 160.0 * (1.0 + 1e-6) + 1e-6);
  EXPECT_EQ(server.shed(), 0u);
}

TEST(Server, ShedsWhenAdmissionQueueStaysFull) {
  ServerConfig sc = test_server_config(8.0);
  sc.admission_capacity = 1;
  Server server(sc);
  // Submitting before start() makes the outcome deterministic: nothing
  // drains the queue, so exactly one request fits and three are shed.
  std::size_t accepted = 0;
  for (int i = 0; i < 4; ++i) {
    if (server.submit({.demand = 150.0}, milliseconds(0))) ++accepted;
  }
  EXPECT_EQ(accepted, 1u);
  EXPECT_EQ(server.shed(), 3u);
  server.start();
  const RunStats stats = server.drain_and_stop();
  EXPECT_EQ(stats.jobs_total, 1u);
  EXPECT_EQ(server.shed(), 3u);
}

// The acceptance scenario: a 30-virtual-second Poisson workload from
// multiple producers onto 8 worker threads, power budget respected in
// every published metrics snapshot.
TEST(Server, ThirtySecondPoissonWorkloadUnderBudget) {
  const double kScale = 16.0;
  const Time kDurationMs = 30'000.0;
  const double kRate = 120.0;  // requests per virtual second
  constexpr int kProducers = 4;

  Server server(test_server_config(kScale));
  server.start();
  std::atomic<std::size_t> produced{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Xoshiro256 rng(17 + static_cast<std::uint64_t>(p));
      const BoundedPareto demand = BoundedPareto::websearch();
      const double rate_per_ms = kRate / kProducers / 1000.0;
      while (server.now() < kDurationMs) {
        const double gap_ms = rng.exponential(rate_per_ms);
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(gap_ms / kScale));
        if (server.now() >= kDurationMs) break;
        if (server.submit({.demand = demand.sample(rng)}, milliseconds(50))) {
          produced.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  const RunStats stats = server.drain_and_stop();

  EXPECT_EQ(stats.jobs_total, produced.load());
  EXPECT_GT(stats.jobs_total, 100u);  // ~3600 expected at rate 120
  EXPECT_GT(stats.jobs_satisfied, 0u);
  EXPECT_GT(stats.normalized_quality, 0.0);
  EXPECT_GT(stats.replans, 0u);

  // The paper's hard constraint: instantaneous power never exceeds H.
  const double budget = 160.0;
  EXPECT_LE(stats.peak_power, budget * (1.0 + 1e-6) + 1e-6);
  ASSERT_FALSE(server.snapshots().empty());
  for (const MetricsSnapshot& s : server.snapshots()) {
    EXPECT_LE(s.planned_power_w, budget + 1e-6);
    EXPECT_LE(s.peak_power_w, budget * (1.0 + 1e-6) + 1e-6);
    EXPECT_FALSE(s.to_json().empty());
  }
  // Workers actually paced jobs (not everything expired unserved).
  Time busy = 0.0;
  for (const WorkerStats& w : server.worker_stats()) busy += w.busy_virtual_ms;
  EXPECT_GT(busy, 0.0);
}

TEST(Server, SnapshotJsonHasExpectedKeys) {
  MetricsSnapshot s;
  s.t_virtual_ms = 1234.5;
  s.admitted = 10;
  const std::string j = s.to_json();
  EXPECT_NE(j.find("\"t_ms\": 1234.500"), std::string::npos);
  EXPECT_NE(j.find("\"admitted\": 10"), std::string::npos);
  EXPECT_NE(j.find("\"planned_power_w\""), std::string::npos);
  EXPECT_EQ(j.front(), '{');
  EXPECT_EQ(j.back(), '}');
}

}  // namespace
}  // namespace qes::runtime
