// Cluster-level golden test: the multi-node lockstep replay must stay
// BITWISE identical across planner- and runtime-internal refactors.
// cluster_conformance_test pins N = 1 against the standalone runtime and
// the scaling shape; this file pins what only N > 1 runs: broker ticks
// that re-split H every period and force replans, P2C/JSQ routing, kill
// redistribution and budget steps. Two cases:
//  - trough_4x8_p2c: cluster_trough (the repository benchmark's cluster
//    workload) scaled down to 60 s of diurnal arrivals — 4 nodes x 8
//    cores, the overnight_trough power model (b = 2 W, sleep state,
//    race-to-idle), P2C dispatch, a 20 ms broker, H stepping between
//    70 % and 100 % every tenth of the run, and one node kill;
//  - rigid_b0_wf_jsq: b = 0, H binding and 30 % rigid jobs, so WF and
//    budget-bounded Online-QE with the §V-D rigid loop run on every
//    node (cluster_trough never leaves the all-fits fast path).
// Every ClusterRunStats scalar and each node's RunStats are pinned as
// IEEE-754 bit patterns, plus FNV-1a digests of the broker log and the
// power samples.
//
// Regenerating (ONLY legitimate after an intentional semantic change,
// or to pin a newly added case on unchanged code): run
//   QES_GOLDEN_DUMP=1 build/tests/cluster_lockstep_golden_test
//       --gtest_filter='*ClusterRunStatsBitwiseStable'
// and keep only the table lines
// (grep -E '^[a-z0-9_]+ [a-z0-9_.]+ [0-9a-f]{16} ')
// in tests/golden/cluster_runstats.txt.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "cli/workload_source.hpp"
#include "cluster/lockstep.hpp"
#include "golden_util.hpp"
#include "obs/registry.hpp"
#include "policy/des_planner.hpp"

namespace {

using namespace qes;
using cluster::ChaosEvent;
using cluster::ClusterRunStats;
using cluster::LockstepClusterConfig;

struct GoldenCase {
  std::string name;
  ClusterRunStats stats;
  /// Shared by every node's RuntimeCore: its replan-phase histograms
  /// show which planner branches the case reached.
  std::unique_ptr<obs::Registry> registry;
};

GoldenCase run_case(std::string name, LockstepClusterConfig cc,
                    std::vector<Job> jobs, std::vector<ChaosEvent> chaos) {
  GoldenCase out{std::move(name), {}, std::make_unique<obs::Registry>()};
  cc.node.registry = out.registry.get();
  out.stats = cluster::run_cluster_lockstep_chaos(cc, std::move(jobs),
                                                  std::move(chaos));
  return out;
}

GoldenCase trough_case() {
  constexpr int kNodes = 4;
  constexpr Watts kNodeBudget = 160.0;
  constexpr Time kHorizon = 60'000.0;
  cli::WorkloadSourceSpec w;
  w.regime = "diurnal";
  w.workload.arrival_rate = 80.0;
  w.workload.horizon_ms = kHorizon;
  w.workload.deadline_ms = 2000.0;
  w.workload.seed = 101;
  w.diurnal_amplitude = 0.6;
  w.diurnal_period_ms = kHorizon;

  LockstepClusterConfig cc;
  cc.node.cores = 8;
  cc.node.power_model.b = 2.0;
  cc.node.power_model.sleep_enabled = true;
  cc.node.power_model.sleep_power = 0.2;
  cc.node.power_model.wake_latency_ms = 1.0;
  cc.node.power_model.wake_energy_j = 0.05;
  cc.node.quantum_ms = 200.0;
  cc.node.counter_trigger = 8;
  cc.nodes = kNodes;
  cc.total_budget = kNodeBudget * kNodes;
  cc.broker_period_ms = 20.0;
  cc.redispatch_deadline_ms = 2000.0;
  cc.dispatch = cluster::DispatchPolicy::PowerOfTwo;
  cc.dispatch_seed = 101;

  // H alternates between 70 % and 100 % every tenth of the run; node 1
  // dies between the steps at 0.6 and 0.7.
  std::vector<ChaosEvent> chaos;
  for (int k = 1; k < 10; ++k) {
    chaos.push_back({kHorizon * k / 10.0, ChaosEvent::Kind::BudgetStep, 0,
                     (k % 2 == 1 ? 0.7 : 1.0) * cc.total_budget});
  }
  chaos.insert(chaos.begin() + 6,
               {kHorizon * 0.65, ChaosEvent::Kind::Kill, 1, 0.0});
  return run_case("trough_4x8_p2c", cc, cli::make_jobs(w), std::move(chaos));
}

GoldenCase rigid_wf_case() {
  WorkloadConfig wl;
  wl.arrival_rate = 150.0;
  wl.horizon_ms = 8'000.0;
  wl.partial_fraction = 0.7;
  wl.seed = 7;

  LockstepClusterConfig cc;
  cc.node.cores = 4;  // b = 0: the paper's §V-B power model
  cc.nodes = 3;
  cc.total_budget = 120.0;  // about 60 % of the offered load at s = 1.41
  cc.broker_period_ms = 20.0;
  cc.dispatch = cluster::DispatchPolicy::JSQ;
  const std::vector<ChaosEvent> chaos = {
      {4'000.0, ChaosEvent::Kind::BudgetStep, 0, 90.0}};
  return run_case("rigid_b0_wf_jsq", cc, generate_websearch_jobs(wl), chaos);
}

std::vector<GoldenCase> golden_cases() {
  std::vector<GoldenCase> out;
  out.push_back(trough_case());
  out.push_back(rigid_wf_case());
  return out;
}

std::vector<test::GoldenRow> rows(const GoldenCase& c) {
  const ClusterRunStats& s = c.stats;
  std::vector<test::GoldenRow> out;
  const auto bits = [&](const std::string& field, double v) {
    out.push_back(test::bits_row(c.name, field, v));
  };
  bits("cluster.total_quality", s.total_quality);
  bits("cluster.max_quality", s.max_quality);
  bits("cluster.normalized_quality", s.normalized_quality);
  bits("cluster.dynamic_energy", s.dynamic_energy);
  bits("cluster.static_energy", s.static_energy);
  bits("cluster.wake_energy", s.wake_energy);
  bits("cluster.core_wakes", static_cast<double>(s.core_wakes));
  bits("cluster.peak_node_power", s.peak_node_power);
  bits("cluster.end_time", s.end_time);
  bits("cluster.jobs_total", static_cast<double>(s.jobs_total));
  bits("cluster.jobs_satisfied", static_cast<double>(s.jobs_satisfied));
  bits("cluster.jobs_partial", static_cast<double>(s.jobs_partial));
  bits("cluster.jobs_zero", static_cast<double>(s.jobs_zero));
  bits("cluster.jobs_discarded_rigid",
       static_cast<double>(s.jobs_discarded_rigid));
  bits("cluster.replans", static_cast<double>(s.replans));
  bits("cluster.route_shed", static_cast<double>(s.route_shed));
  bits("cluster.redistributed", static_cast<double>(s.redistributed));
  bits("cluster.redistribute_shed", static_cast<double>(s.redistribute_shed));
  bits("cluster.node_shed", static_cast<double>(s.node_shed));
  bits("cluster.max_cluster_power", s.max_cluster_power);
  for (std::size_t i = 0; i < s.node_stats.size(); ++i) {
    const std::string node = "node" + std::to_string(i) + ".";
    bits(node + "killed", s.killed[i] ? 1.0 : 0.0);
    for (const auto& [field, value] : test::run_stats_fields(s.node_stats[i])) {
      bits(node + field, value);
    }
  }
  test::Fnv1a broker;
  for (const ClusterRunStats::BrokerDecision& d : s.broker_log) {
    broker.add_bits(d.t);
    broker.add(d.budgets.size());
    for (const Watts b : d.budgets) broker.add_bits(b);
  }
  out.push_back(test::digest_row(c.name, "broker_log_digest", broker.h,
                                 s.broker_log.size()));
  test::Fnv1a power;
  for (const ClusterRunStats::PowerSample& p : s.power_samples) {
    power.add_bits(p.t);
    power.add_bits(p.power);
    power.add_bits(p.budget);
  }
  out.push_back(test::digest_row(c.name, "power_samples_digest", power.h,
                                 s.power_samples.size()));
  return out;
}

TEST(ClusterLockstepGolden, ClusterRunStatsBitwiseStable) {
  std::vector<test::GoldenRow> all;
  for (const GoldenCase& c : golden_cases()) {
    for (test::GoldenRow& r : rows(c)) all.push_back(std::move(r));
  }
  test::check_golden_table(QES_GOLDEN_FILE, all);
}

/// Replan-phase samples the shared registry recorded for `phase`.
std::uint64_t phase_samples(const GoldenCase& c, const char* phase) {
  const obs::Histogram* h = c.registry->find_histogram(
      policy::kReplanPhaseMetric, {{"plane", "runtime"}, {"phase", phase}});
  return h == nullptr ? 0 : h->count();
}

// The pinned cases must actually reach the branches they are there for.
TEST(ClusterLockstepGolden, CasesCoverTheirBranches) {
  const std::vector<GoldenCase> cases = golden_cases();
  ASSERT_EQ(cases.size(), 2u);

  const ClusterRunStats& trough = cases[0].stats;
  EXPECT_EQ(std::count(trough.killed.begin(), trough.killed.end(), true), 1);
  EXPECT_GT(trough.redistributed, 0u);
  EXPECT_GT(trough.core_wakes, 0u);
  EXPECT_GT(trough.static_energy, 0.0);
  // Broker ticks outnumber the other decisions, and each tick re-splits H
  // across all four nodes.
  EXPECT_GT(trough.broker_log.size(), 2'000u);
  bool stepped_down = false;
  for (const auto& p : trough.power_samples) {
    EXPECT_LE(p.power, p.budget * (1.0 + 1e-9) + 1e-9) << "t = " << p.t;
    if (p.budget < 0.75 * 640.0) stepped_down = true;
  }
  EXPECT_TRUE(stepped_down);

  const GoldenCase& rigid = cases[1];
  EXPECT_GT(rigid.stats.jobs_discarded_rigid, 0u);
  EXPECT_EQ(rigid.stats.static_energy, 0.0);
  EXPECT_EQ(rigid.stats.core_wakes, 0u);
  // H binds: replans leave the all-fits fast path, so WF splits the
  // node budget (and budget-bounded Online-QE plans under it).
  EXPECT_GT(phase_samples(rigid, "wf"), 0u);
}

}  // namespace
