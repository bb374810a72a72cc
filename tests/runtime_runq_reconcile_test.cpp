// Runtime-level regression for the runq substrate:
//
//  1. The `--producers N` in-process mode (tools/qesd) reconciles sheds
//     exactly through the per-core rings: accepted submits ==
//     RunStats::jobs_total, rejected submits == Server::shed() ==
//     qesd_shed_total, and the ring ledgers double-entry both.
//  2. Work stealing is live on the server hot path: a single skewed
//     producer (one hot shard) with a small drain quota leaves a stolen
//     ledger > 0 while accounting stays exact.
//  3. Cross-plane differential: an admission order produced by the runq
//     rings (multi-shard, stolen-rebalanced) stamps a job trace that the
//     sim and the runtime lockstep agree on bitwise in quality — the
//     substrate changes who drains when, never what the planes compute.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/prng.hpp"
#include "obs/registry.hpp"
#include "runq/admission.hpp"
#include "runtime/conformance.hpp"
#include "runtime/server.hpp"
#include "workload/demand.hpp"

namespace qes::runtime {
namespace {

using std::chrono::milliseconds;

ServerConfig base_config(double scale, int cores = 4) {
  ServerConfig sc;
  sc.model.cores = cores;
  sc.model.power_budget = 20.0 * cores;
  sc.time_scale = scale;
  sc.deadline_ms = 150.0;
  sc.tick_wall_ms = 1.0;
  return sc;
}

TEST(RunqReconcile, InProcessProducersShedExactly) {
  ServerConfig sc = base_config(16.0);
  sc.admission_capacity = 64;  // small: force real sheds under the burst
  Server server(sc);
  server.start();

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 3000;
  std::atomic<std::size_t> accepted{0}, rejected{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i) {
        // timeout 0: shed immediately when this thread's ring is full —
        // the qesd --producers overload behavior.
        if (server.submit({.demand = 200.0}, milliseconds(0))) {
          ++accepted;
        } else {
          ++rejected;
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  const RunStats stats = server.drain_and_stop();

  EXPECT_EQ(accepted.load() + rejected.load(),
            static_cast<std::size_t>(kProducers) * kPerProducer);
  EXPECT_GT(rejected.load(), 0u) << "burst must overflow the rings";
  EXPECT_EQ(stats.jobs_total, accepted.load());
  EXPECT_EQ(server.shed(), rejected.load());
  // The scraped shed counter agrees with the server's own.
  const obs::Counter* shed_c =
      server.registry().find_counter("qesd_shed_total");
  ASSERT_NE(shed_c, nullptr);
  EXPECT_EQ(shed_c->value(), static_cast<double>(server.shed()));
  // The ring ledgers double-entry the same flow.
  const runq::AdmissionLedger led = server.admission_ledger();
  EXPECT_EQ(led.pushed, accepted.load());
  EXPECT_EQ(led.drained, accepted.load());
  EXPECT_EQ(led.shed, rejected.load());
}

TEST(RunqReconcile, SkewedProducerTriggersStealing) {
  ServerConfig sc = base_config(16.0);
  sc.admission_capacity = 8192;
  sc.admission_drain_quota = 8;  // small quota: backlog outlives one tick
  sc.steal_threshold = 1;
  Server server(sc);
  // One producer thread -> one hot shard. Burst before start() so the
  // first ticks face a deep backlog and the sibling shards steal.
  std::size_t accepted = 0;
  for (int i = 0; i < 1500; ++i) {
    if (server.submit({.demand = 30.0}, milliseconds(0))) ++accepted;
  }
  ASSERT_GT(accepted, 1000u);
  server.start();
  const RunStats stats = server.drain_and_stop();

  EXPECT_EQ(stats.jobs_total, accepted);
  const runq::AdmissionLedger led = server.admission_ledger();
  EXPECT_EQ(led.pushed, accepted);
  EXPECT_EQ(led.drained, accepted);
  EXPECT_GT(led.stolen, 0u) << "dry shards must steal from the hot shard";
  EXPECT_LT(led.stolen, led.drained);
}

TEST(RunqReconcile, WorkersStayLockAndAllocFreeAtSteadyState) {
  // Without bench interposers the counters cannot move — this pins the
  // plumbing (baseline/delta capture) the e2e bench gates for real.
  ServerConfig sc = base_config(32.0, 2);
  Server server(sc);
  server.start();
  for (int i = 0; i < 50; ++i) {
    (void)server.submit({.demand = 100.0}, milliseconds(5));
  }
  (void)server.drain_and_stop();
  for (const WorkerStats& ws : server.worker_stats()) {
    EXPECT_EQ(ws.steady_allocs, 0u);
    EXPECT_EQ(ws.steady_mutex_locks, 0u);
  }
}

// Builds a job trace whose ADMISSION ORDER comes from draining sharded
// rings (with stealing), then checks sim vs runtime lockstep agree on
// quality bitwise. The ring decides the interleaving; the planes must
// not care.
TEST(RunqReconcile, RingFedAdmissionOrderConformsBitwise) {
  using Adm = runq::ShardedAdmission<int>;
  Adm::Config ac;
  ac.shards = 3;
  ac.capacity_per_shard = 512;
  ac.drain_quota = 5;
  ac.steal_threshold = 1;
  Adm adm(ac);
  // Three producer "threads" registering round-robin, skewed volumes so
  // the drain interleaves home pops and steals.
  const std::size_t counts[3] = {40, 7, 13};
  int payload = 0;
  for (std::size_t p = 0; p < 3; ++p) {
    std::thread t([&] {
      for (std::size_t i = 0; i < counts[p]; ++i) {
        ASSERT_TRUE(adm.push(payload));
        ++payload;
      }
    });
    t.join();
  }
  std::vector<int> order;
  while (!adm.empty()) (void)adm.drain_crr(order);
  ASSERT_EQ(order.size(), 60u);

  // Stamp jobs in drained order: demands keyed by the drained payload,
  // arrivals/deadlines agreeable by construction.
  BoundedPareto demand = BoundedPareto::websearch();
  Xoshiro256 rng(2026);
  std::vector<double> demands(order.size());
  for (double& d : demands) d = demand.sample(rng);
  std::vector<Job> jobs;
  jobs.reserve(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    Job j;
    j.id = static_cast<JobId>(i + 1);
    j.release = 5.0 * static_cast<double>(i);
    j.deadline = j.release + 150.0;
    j.demand = demands[static_cast<std::size_t>(order[i])];
    j.partial_ok = (order[i] % 3) != 0;
    jobs.push_back(j);
  }
  RuntimeConfig rc;
  rc.cores = 3;
  rc.power_budget = 45.0;
  const ConformanceResult r = run_conformance(rc, jobs);
  ASSERT_EQ(r.sim.jobs_total, 60u);
  // Bitwise on quality: the two planes share every arithmetic op.
  EXPECT_EQ(r.runtime.total_quality, r.sim.total_quality);
  EXPECT_EQ(r.runtime.jobs_satisfied, r.sim.jobs_satisfied);
  EXPECT_EQ(r.runtime.jobs_zero, r.sim.jobs_zero);
}

}  // namespace
}  // namespace qes::runtime
