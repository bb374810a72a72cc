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
