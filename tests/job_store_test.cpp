// The job store both planes share (obs/job_store.hpp): it feeds
// finalized jobs to the run accumulator in id order and frees whole
// chunks behind the live window, and that must change where memory
// lives, never a result bit. Covers the store's own contract, a
// multi-node lockstep run whose node kill lands after the victim freed
// its first chunk (pinned to the bits the cluster produced while every
// node kept every job), and a fixed-rate qesd soak whose resident job
// records stay flat while admissions grow tenfold.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "cli/workload_source.hpp"
#include "cluster/lockstep.hpp"
#include "core/schedule.hpp"
#include "golden_util.hpp"
#include "obs/job_store.hpp"
#include "runtime/server.hpp"

namespace qes {
namespace {

constexpr std::size_t kChunk = obs::JobStore::Arena::kChunkSize;

// ---- the store ----

struct FakeCore {
  Schedule plan;
  std::size_t next_seg = 0;
};

void finalize(JobState& st, double quality) {
  st.phase = JobState::Phase::Finalized;
  st.processed = st.job.demand;
  st.satisfied = true;
  st.quality = quality;
  st.finalized_at = st.job.release + 1.0;
}

Job job_with_id(std::size_t id) {
  const Time t = static_cast<Time>(id);
  return Job{.id = id, .release = t, .deadline = t + 10.0, .demand = 1.0};
}

TEST(JobStore, RecordFitsInNinetySixBytes) {
  // The record carries the runtime's `abandoned` flag and the wire tag;
  // the flags pack beside the one-byte phase, so a job costs 96 B.
  EXPECT_LE(sizeof(JobState), 96u);
}

TEST(JobStore, FeedsInIdOrderAndSkipsAbandonedJobs) {
  obs::JobStore store;
  for (std::size_t id = 1; id <= 3; ++id) store.admit(job_with_id(id), id);
  finalize(store[0], 0.25);
  finalize(store[1], 100.0);
  store[1].abandoned = true;
  finalize(store[2], 0.5);
  EXPECT_EQ(store[2].tag, 3u);

  const QualityFunction f = QualityFunction::exponential(0.003);
  store.feed_upto(3, f);
  store.feed_upto(2, f);  // already fed: a no-op
  const RunStats s = store.accumulator().finish(0.0, 0.0, 0.0, 0.0, 0);
  EXPECT_EQ(s.jobs_total, 2u);
  EXPECT_EQ(s.jobs_satisfied, 2u);
  EXPECT_EQ(s.total_quality, 0.25 + 0.5);
}

TEST(JobStore, ReclaimHoldsEveryJobAnInstalledPlanNames) {
  obs::JobStore store;
  const std::size_t n = 3 * kChunk + 10;
  for (std::size_t id = 1; id <= n; ++id) store.admit(job_with_id(id));
  for (std::size_t k = 0; k < 3 * kChunk; ++k) finalize(store[k], 1.0);
  const QualityFunction f = QualityFunction::exponential(0.003);

  // Less than a chunk died: nothing to free.
  std::vector<FakeCore> cores(2);
  store.reclaim_dead_prefix(kChunk - 1, cores, f);
  EXPECT_EQ(store.released(), 0u);

  // A stale segment of the finalized job kChunk + 5 (index kChunk + 4)
  // holds the floor inside the second chunk; a spent segment does not.
  cores[0].plan.push({0.0, 1.0, 1, 1.0});
  cores[0].plan.push({1.0, 2.0, kChunk + 5, 1.0});
  cores[0].next_seg = 1;
  store.reclaim_dead_prefix(3 * kChunk, cores, f);
  EXPECT_EQ(store.released(), kChunk);
  EXPECT_EQ(store[kChunk + 4].job.id, kChunk + 5);

  // Once the plan moves past it, the floor is first_live again.
  cores[0].next_seg = 2;
  store.reclaim_dead_prefix(3 * kChunk, cores, f);
  EXPECT_EQ(store.released(), 3 * kChunk);
  EXPECT_DEATH((void)store[3 * kChunk - 1], "released floor");
  EXPECT_EQ(store[3 * kChunk].job.id, 3 * kChunk + 1);

  const RunStats s = store.accumulator().finish(0.0, 0.0, 0.0, 0.0, 0);
  EXPECT_EQ(s.jobs_total, 3 * kChunk);
}

// ---- a lockstep cluster whose kill lands after the first release ----

// cluster_lockstep_golden_test's trough case run four times as long at
// three times the rate: 57,718 jobs over 4 nodes x 8 cores with the
// overnight_trough power model, P2C, a 20 ms broker, H stepping between
// 70 % and 100 % every tenth of the run, and node 1 killed at 0.65.
cluster::ClusterRunStats late_kill_trough() {
  using cluster::ChaosEvent;
  constexpr int kNodes = 4;
  constexpr Time kHorizon = 240'000.0;
  cli::WorkloadSourceSpec w;
  w.regime = "diurnal";
  w.workload.arrival_rate = 240.0;
  w.workload.horizon_ms = kHorizon;
  w.workload.deadline_ms = 2000.0;
  w.workload.seed = 103;
  w.diurnal_amplitude = 0.6;
  w.diurnal_period_ms = kHorizon;

  cluster::LockstepClusterConfig cc;
  cc.node.cores = 8;
  cc.node.power_model.b = 2.0;
  cc.node.power_model.sleep_enabled = true;
  cc.node.power_model.sleep_power = 0.2;
  cc.node.power_model.wake_latency_ms = 1.0;
  cc.node.power_model.wake_energy_j = 0.05;
  cc.node.quantum_ms = 200.0;
  cc.node.counter_trigger = 8;
  cc.nodes = kNodes;
  cc.total_budget = 160.0 * kNodes;
  cc.broker_period_ms = 20.0;
  cc.redispatch_deadline_ms = 2000.0;
  cc.dispatch = cluster::DispatchPolicy::PowerOfTwo;
  cc.dispatch_seed = 103;
  std::vector<ChaosEvent> chaos;
  for (int k = 1; k < 10; ++k) {
    chaos.push_back({kHorizon * k / 10.0, ChaosEvent::Kind::BudgetStep, 0,
                     (k % 2 == 1 ? 0.7 : 1.0) * cc.total_budget});
  }
  chaos.insert(chaos.begin() + 6,
               {kHorizon * 0.65, ChaosEvent::Kind::Kill, 1, 0.0});
  return cluster::run_cluster_lockstep_chaos(cc, cli::make_jobs(w),
                                             std::move(chaos));
}

/// FNV-1a over every ClusterRunStats scalar, every node's RunStats
/// field, the broker log and the power samples.
std::uint64_t stats_digest(const cluster::ClusterRunStats& s) {
  test::Fnv1a h;
  for (double v : {s.total_quality, s.max_quality, s.normalized_quality,
                   s.dynamic_energy, s.static_energy, s.wake_energy,
                   s.peak_node_power, s.end_time, s.max_cluster_power}) {
    h.add_bits(v);
  }
  for (std::size_t v : {s.core_wakes, s.jobs_total, s.jobs_satisfied,
                        s.jobs_partial, s.jobs_zero, s.jobs_discarded_rigid,
                        s.replans, s.route_shed, s.redistributed,
                        s.redistribute_shed, s.node_shed}) {
    h.add(v);
  }
  for (std::size_t i = 0; i < s.node_stats.size(); ++i) {
    h.add(s.killed[i] ? 1 : 0);
    for (const auto& [field, value] : test::run_stats_fields(s.node_stats[i])) {
      h.add_bits(value);
    }
  }
  for (const cluster::ClusterRunStats::BrokerDecision& d : s.broker_log) {
    h.add_bits(d.t);
    for (Watts b : d.budgets) h.add_bits(b);
  }
  for (const cluster::ClusterRunStats::PowerSample& p : s.power_samples) {
    h.add_bits(p.t);
    h.add_bits(p.power);
    h.add_bits(p.budget);
  }
  return h.h;
}

TEST(ClusterJobStore, KillAfterTheFirstReleaseKeepsEveryBit) {
  const cluster::ClusterRunStats s = late_kill_trough();
  ASSERT_TRUE(s.killed[1]);
  // The victim finalized two chunks' worth of jobs before it died, and
  // its plans name only jobs within one 2 s deadline of its clock, so
  // its first chunk was fed and freed before the kill.
  EXPECT_GE(s.node_stats[1].jobs_total, 2 * kChunk);
  EXPECT_GT(s.redistributed, 0u);

  EXPECT_EQ(test::hex_bits(s.total_quality), "40d71a28df9cb529");
  EXPECT_EQ(test::hex_bits(s.dynamic_energy), "40f25c532fb7c792");
  EXPECT_EQ(test::hex_bits(s.static_energy), "40cb739fec077bba");
  EXPECT_EQ(s.jobs_total, 57718u);
  EXPECT_EQ(s.redistributed, 148u);
  EXPECT_EQ(test::hex64(stats_digest(s)), "bfdeaea9b3a16529");
}

// ---- a fixed-rate qesd soak ----

TEST(QesdSoak, ResidentJobRecordsStayFlatWhileAdmissionsGrowTenfold) {
  runtime::ServerConfig sc;
  sc.model.cores = 8;
  sc.model.power_budget = 160.0;
  sc.time_scale = 50.0;
  sc.deadline_ms = 150.0;
  runtime::Server server(sc);
  server.start();

  // 20 submissions per wall millisecond: 400 jobs per virtual second,
  // each light enough to complete inside its 150 ms window.
  constexpr std::size_t kWarmup = 3000;
  constexpr int kPerMs = 20;
  std::vector<runtime::MetricsSnapshot> polls;
  std::size_t warm_admitted = 0;
  std::size_t submitted = 0;  // accepted by submit()
  auto next = std::chrono::steady_clock::now();
  while (polls.empty() ||
         polls.back().admitted < 10 * std::max(warm_admitted, kWarmup)) {
    for (int k = 0; k < kPerMs; ++k) {
      // A host stall may shed some; only admissions matter here.
      if (server.submit({.demand = 40.0}, std::chrono::milliseconds(200))) {
        ++submitted;
      }
    }
    next += std::chrono::milliseconds(1);
    std::this_thread::sleep_until(next);
    polls.push_back(server.snapshot());
    if (warm_admitted == 0 && polls.back().admitted >= kWarmup) {
      warm_admitted = polls.back().admitted;
    }
  }
  const RunStats stats = server.drain_and_stop();
  EXPECT_EQ(stats.jobs_total, submitted);
  EXPECT_GE(polls.back().admitted, 10 * warm_admitted);

  // Every job admitted a deadline before a poll has expired by it, and
  // installed plans name only unexpired jobs, so the core holds at most
  // the jobs admitted since then plus the finalized rest of one chunk.
  std::size_t max_resident = 0;
  std::size_t older = 0;  // the latest poll a deadline or more back
  for (const runtime::MetricsSnapshot& p : polls) {
    if (p.admitted < warm_admitted) continue;
    while (polls[older + 1].t_virtual_ms <= p.t_virtual_ms - sc.deadline_ms) {
      ++older;
    }
    const std::size_t window = p.admitted - polls[older].admitted;
    EXPECT_LE(p.resident_jobs, kChunk + window) << "t = " << p.t_virtual_ms;
    max_resident = std::max(max_resident, p.resident_jobs);
  }
  EXPECT_LE(max_resident, polls.back().admitted / 4);
}

}  // namespace
}  // namespace qes
