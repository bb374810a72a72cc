// The benchmark's own tests: the exact-percentile helper, the ladder's
// step verdict, the steady-step check and capacity interpolation on
// synthetic step data, the manifest's metric list, and a short smoke run
// of each workload — clean, reporting every manifest metric, and with a
// deliberately violated check that must fail the run.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

TEST(ExactPercentile, NearestRankOnKnownSamples) {
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);  // 1..1000, reversed
  EXPECT_EQ(exact_percentile(v, 0.50), 500.0);
  EXPECT_EQ(exact_percentile(v, 0.99), 990.0);
  EXPECT_EQ(exact_percentile(v, 0.001), 1.0);
}

TEST(ExactPercentile, RefusesWithFewerThanTenSamplesBeyond) {
  std::vector<double> v(999, 1.0);  // p99 rank 990: 9 samples beyond
  EXPECT_FALSE(exact_percentile(v, 0.99).has_value());
  v.push_back(2.0);  // 1000 samples: 10 beyond rank 990
  EXPECT_TRUE(exact_percentile(v, 0.99).has_value());
  std::vector<double> few(19, 1.0);  // p50 rank 10: 9 beyond
  EXPECT_FALSE(exact_percentile(few, 0.50).has_value());
  std::vector<double> none;
  EXPECT_FALSE(exact_percentile(none, 0.50).has_value());
}

TEST(ExactPercentile, InfiniteSamplesCountAsMisses) {
  std::vector<double> v(1000, 1.0);
  for (int i = 0; i < 20; ++i) v[static_cast<std::size_t>(i)] = INFINITY;
  EXPECT_TRUE(std::isinf(*exact_percentile(v, 0.99)));
}

TEST(Median, OddEvenEmpty) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

StepSummary healthy(double rate) {
  StepSummary s;
  s.rate = rate;
  s.sent = 100'000;
  s.samples = 80'000;
  s.windows = 10;
  s.p50_ms = 3.0;
  s.p99_ms = 5.0;
  s.first_p50_ms = s.last_p50_ms = 3.0;
  s.send_lag_p50_ms = 0.01;
  s.send_lag_p99_ms = 0.05;
  return s;
}

TEST(StepVerdict, CountMissedTreatsShedWindowsAsMisses) {
  EXPECT_EQ(count_missed({5.0, kP99LimitMs, kP99LimitMs + 0.1, INFINITY}), 2u);
}

TEST(StepVerdict, HealthyStepPasses) {
  const StepVerdict v = judge_step(healthy(40'000));
  EXPECT_TRUE(v.pass);
  EXPECT_EQ(v.missed_frac, 0.0);
  EXPECT_TRUE(v.why.empty());
}

TEST(StepVerdict, IsolatedStallsPassAnOverloadFails) {
  StepSummary s = healthy(100'000);
  s.missed_windows = 4;  // stalls spoil a few windows
  EXPECT_TRUE(judge_step(s).pass);
  s.missed_windows = 5;  // half the windows miss: not sustained
  EXPECT_FALSE(judge_step(s).pass);
}

TEST(StepVerdict, GrowingBacklogFailsEvenWithinTheLimit) {
  StepSummary s = healthy(150'000);
  s.last_p50_ms = 4.0;  // 3 ms * 1.25 + 0.25 ms allowed
  EXPECT_TRUE(judge_step(s).pass);
  s.last_p50_ms = 4.1;
  const StepVerdict v = judge_step(s);
  EXPECT_FALSE(v.pass);
  EXPECT_TRUE(v.backlog_grew);
}

TEST(StepVerdict, DriverLagInvalidatesOnlyWhenSystematic) {
  StepSummary s = healthy(100'000);
  s.send_lag_p99_ms = 5.0;  // stalls alone do not invalidate a step
  EXPECT_TRUE(judge_step(s).pass);
  s.send_lag_p50_ms = 2.0;
  const StepVerdict v = judge_step(s);
  EXPECT_FALSE(v.pass);
  EXPECT_TRUE(v.invalid);
}

TEST(SteadyStep, ASyntheticInvalidOrGrowingStepFailsTheRun) {
  Outcome ok;
  StepSummary s = healthy(20'000);
  s.missed_windows = 6;  // worse latency, but the figures stand
  check_steady_step(judge_step(s), ok);
  EXPECT_TRUE(ok.correct());

  Outcome lagging;
  s = healthy(20'000);
  s.send_lag_p50_ms = 2.0;  // the driver, not the server, set the pace
  check_steady_step(judge_step(s), lagging);
  EXPECT_FALSE(lagging.correct());

  Outcome growing;
  s = healthy(20'000);
  s.last_p50_ms = 10.0;
  check_steady_step(judge_step(s), growing);
  EXPECT_FALSE(growing.correct());
}

std::vector<StepVerdict> judge_all(const std::vector<StepSummary>& steps) {
  std::vector<StepVerdict> v;
  for (const StepSummary& s : steps) v.push_back(judge_step(s));
  return v;
}

TEST(Capacity, InterpolatesTheMissedShareAcrossOneHalf) {
  std::vector<StepSummary> steps = {healthy(100'000), healthy(140'000)};
  steps[0].missed_windows = 1;  // 0.1
  steps[1].missed_windows = 9;  // 0.9
  const std::vector<StepVerdict> v = judge_all(steps);
  ASSERT_TRUE(v[0].pass);
  ASSERT_FALSE(v[1].pass);
  const Capacity c = interpolate_capacity(steps, v);
  EXPECT_FALSE(c.censored);
  EXPECT_NEAR(c.rps, 120'000.0, 1e-6);
}

TEST(Capacity, BacklogRejectionCountsAsWhollyMissed) {
  std::vector<StepSummary> steps = {healthy(100'000), healthy(140'000)};
  steps[1].last_p50_ms = 100.0;  // queue grew without bound
  const Capacity c = interpolate_capacity(steps, judge_all(steps));
  EXPECT_NEAR(c.rps, 120'000.0, 1e-6);  // 0 -> 1 crosses 1/2 half way
}

TEST(Capacity, CensoredWhenEveryStepPassesAndFromZeroWhenNoneDoes) {
  std::vector<StepSummary> steps = {healthy(100'000), healthy(140'000)};
  Capacity c = interpolate_capacity(steps, judge_all(steps));
  EXPECT_TRUE(c.censored);
  EXPECT_EQ(c.rps, 140'000.0);

  std::vector<StepSummary> one = {healthy(100'000)};
  one[0].missed_windows = 10;
  c = interpolate_capacity(one, judge_all(one));
  EXPECT_NEAR(c.rps, 50'000.0, 1e-6);
}

RunOptions smoke(bool violate) {
  RunOptions o;
  o.seed = 3;
  o.seconds = 0.1;
  o.smoke = true;
  o.violate = violate;
  return o;
}

TEST(Smoke, SimDiurnalPassesAndAViolatedCheckFails) {
  const Outcome ok = run_sim_diurnal(smoke(false));
  EXPECT_TRUE(ok.correct()) << (ok.failures.empty() ? "" : ok.failures[0]);
  EXPECT_FALSE(ok.metrics.empty());
  const Outcome bad = run_sim_diurnal(smoke(true));
  EXPECT_FALSE(bad.correct());
}

TEST(Smoke, ClusterTroughPassesAndAViolatedCheckFails) {
  const Outcome ok = run_cluster_trough(smoke(false));
  EXPECT_TRUE(ok.correct()) << (ok.failures.empty() ? "" : ok.failures[0]);
  const Outcome bad = run_cluster_trough(smoke(true));
  EXPECT_FALSE(bad.correct());
}

TEST(Smoke, WireLadderPassesAndAViolatedCheckFails) {
  const Outcome ok = run_wire_ladder(smoke(false));
  EXPECT_TRUE(ok.correct()) << (ok.failures.empty() ? "" : ok.failures[0]);
  const Outcome bad = run_wire_ladder(smoke(true));
  EXPECT_FALSE(bad.correct());
}

TEST(Manifest, AbsentLayersReadZeroAndMissingOrStrayMetricsFail) {
  Outcome sim;
  for (const MetricSpec& m : manifest_metrics(true)) {
    if (m.run_by & kSimDiurnal) sim.add(m.name, 1.0, m.unit);
  }
  order_as_manifest(sim, kSimDiurnal, true);
  EXPECT_TRUE(sim.correct()) << sim.failures[0];
  ASSERT_EQ(sim.metrics.size(), manifest_metrics(true).size());
  for (std::size_t i = 0; i < sim.metrics.size(); ++i) {
    const MetricSpec& spec = manifest_metrics(true)[i];
    EXPECT_EQ(sim.metrics[i].name, spec.name);
    EXPECT_EQ(sim.metrics[i].value, spec.run_by & kSimDiurnal ? 1.0 : 0.0);
  }

  Outcome missing;  // wire runs the net layer, so it must report it
  for (const MetricSpec& m : manifest_metrics(true)) {
    if ((m.run_by & kWireLadder) && std::string(m.name) != "net.replies") {
      missing.add(m.name, 1.0, m.unit);
    }
  }
  order_as_manifest(missing, kWireLadder, true);
  EXPECT_FALSE(missing.correct());

  Outcome stray, wrong_unit;
  for (const MetricSpec& m : manifest_metrics(false)) {
    stray.add(m.name, 1.0, m.unit);
    wrong_unit.add(m.name, 1.0, std::string(m.name) == "setup_s" ? "ms" : m.unit);
  }
  stray.add("jobs_per_s", 1.0, "1/s");
  order_as_manifest(stray, kClusterTrough, false);
  EXPECT_FALSE(stray.correct());
  order_as_manifest(wrong_unit, kClusterTrough, false);
  EXPECT_FALSE(wrong_unit.correct());
}

TEST(Smoke, EveryWorkloadReportsEveryManifestMetric) {
  struct Case {
    Outcome (*run)(const RunOptions&);
    WorkloadBit bit;
  };
  for (bool traced : {false, true}) {
    RunOptions o = smoke(false);
    o.trace = traced;
    for (const Case& c : {Case{run_sim_diurnal, kSimDiurnal},
                          Case{run_cluster_trough, kClusterTrough},
                          Case{run_wire_ladder, kWireLadder}}) {
      Outcome out = c.run(o);
      order_as_manifest(out, c.bit, traced);
      EXPECT_TRUE(out.correct()) << out.failures[0];
      EXPECT_EQ(out.metrics.size(), manifest_metrics(traced).size());
      for (const Metric& m : out.metrics) {
        if (!traced) EXPECT_GT(m.value, 0.0) << m.name;
      }
    }
  }
}

}  // namespace
}  // namespace perfbench
