#include "sched/weighted_quality.hpp"

#include <gtest/gtest.h>

#include "core/prng.hpp"
#include "sched/quality_opt.hpp"
#include "test_util.hpp"

namespace qes {
namespace {

const QualityFunction kF = QualityFunction::exponential(0.003);

TEST(WeightedQuality, EqualWeightsReduceToQualityOpt) {
  Xoshiro256 rng(3);
  for (int rep = 0; rep < 8; ++rep) {
    auto jobs = test::random_agreeable_jobs(rng, 12, 300.0);
    AgreeableJobSet set(jobs);
    const Speed s = rng.uniform(0.4, 1.5);
    const std::vector<double> w(set.size(), 1.0);
    const auto weighted = weighted_quality_opt_schedule(set.jobs(), s, w, kF);
    const auto plain = quality_opt_schedule(set, s);
    for (std::size_t k = 0; k < set.size(); ++k) {
      EXPECT_NEAR(weighted.volumes[k], plain.volumes[k], 1.5)
          << "job " << set[k].id;
    }
  }
}

TEST(WeightedQuality, PremiumJobsGetMoreVolumeUnderOverload) {
  // Boundary case: with c = 0.003 the premium marginal still dominates
  // at the cap, so the 3x job takes the whole capacity.
  AgreeableJobSet set({
      {.id = 1, .release = 0.0, .deadline = 100.0, .demand = 200.0},
      {.id = 2, .release = 0.0, .deadline = 100.0, .demand = 200.0},
  });
  const std::vector<double> w = {3.0, 1.0};
  const auto r = weighted_quality_opt_schedule(set.jobs(), 1.0, w, kF);
  EXPECT_NEAR(r.volumes[0], 100.0, 1.0);
  EXPECT_NEAR(r.volumes[1], 0.0, 1.0);
}

TEST(WeightedQuality, InteriorKktSpacing) {
  // With a more concave f (c = 0.01) and more capacity the optimum is
  // interior and the KKT condition pins the spacing:
  // 3 e^{-c p1} = e^{-c p2}  =>  p1 - p2 = ln(3)/c ~ 110.
  const auto f = QualityFunction::exponential(0.01);
  AgreeableJobSet set({
      {.id = 1, .release = 0.0, .deadline = 250.0, .demand = 200.0},
      {.id = 2, .release = 0.0, .deadline = 250.0, .demand = 200.0},
  });
  const std::vector<double> w = {3.0, 1.0};
  const auto r = weighted_quality_opt_schedule(set.jobs(), 1.0, w, f);
  EXPECT_NEAR(r.volumes[0] + r.volumes[1], 250.0, 1.0);
  EXPECT_NEAR(r.volumes[0] - r.volumes[1], std::log(3.0) / 0.01, 3.0);
}

TEST(WeightedQuality, AmpleCapacitySatisfiesEveryone) {
  AgreeableJobSet set({
      {.id = 1, .release = 0.0, .deadline = 150.0, .demand = 100.0},
      {.id = 2, .release = 50.0, .deadline = 200.0, .demand = 80.0},
  });
  const std::vector<double> w = {1.0, 5.0};
  const auto r = weighted_quality_opt_schedule(set.jobs(), 10.0, w, kF);
  EXPECT_NEAR(r.volumes[0], 100.0, 1e-6);
  EXPECT_NEAR(r.volumes[1], 80.0, 1e-6);
}

class WeightedPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(WeightedPropertyTest, FeasibleAndWithinDemand) {
  Xoshiro256 rng(GetParam());
  for (int rep = 0; rep < 5; ++rep) {
    auto jobs = (rep % 2 == 0)
                    ? test::random_agreeable_jobs(rng, 12, 300.0)
                    : test::random_agreeable_jobs_varwindow(rng, 12, 300.0);
    AgreeableJobSet set(jobs);
    std::vector<double> w;
    for (std::size_t k = 0; k < set.size(); ++k) {
      w.push_back(rng.bernoulli(0.3) ? 4.0 : 1.0);
    }
    const Speed s = rng.uniform(0.4, 1.5);
    const auto r = weighted_quality_opt_schedule(set.jobs(), s, w, kF);
    r.schedule.check_well_formed();
    r.schedule.check_respects_windows(set.jobs());
    for (std::size_t k = 0; k < set.size(); ++k) {
      EXPECT_GE(r.volumes[k], -1e-9);
      EXPECT_LE(r.volumes[k], set[k].demand + 1e-6);
    }
    EXPECT_LE(r.schedule.max_speed(), s + 1e-9);
  }
}

TEST_P(WeightedPropertyTest, DominatesUnweightedOnWeightedObjective) {
  // On the weighted objective, the weighted scheduler must beat (or tie)
  // the weight-blind Quality-OPT allocation.
  Xoshiro256 rng(GetParam() ^ 0xABULL);
  for (int rep = 0; rep < 5; ++rep) {
    auto jobs = test::random_agreeable_jobs(rng, 10, 250.0);
    AgreeableJobSet set(jobs);
    std::vector<double> w;
    for (std::size_t k = 0; k < set.size(); ++k) {
      w.push_back(rng.uniform(0.5, 5.0));
    }
    const Speed s = rng.uniform(0.3, 0.9);  // force scarcity
    const auto weighted = weighted_quality_opt_schedule(set.jobs(), s, w, kF);
    const auto plain = quality_opt_schedule(set, s);
    double plain_score = 0.0;
    for (std::size_t k = 0; k < set.size(); ++k) {
      plain_score += w[k] * kF(plain.volumes[k]);
    }
    EXPECT_GE(weighted.weighted_quality, plain_score - 1e-6);
  }
}

TEST_P(WeightedPropertyTest, NoFeasiblePairwiseTransferImproves) {
  // KKT check on the weighted objective: moving volume between jobs in
  // the same window must not improve sum omega f(p).
  Xoshiro256 rng(GetParam() ^ 0xCDULL);
  std::vector<Job> jobs;
  const std::size_t n = 6;
  for (std::size_t k = 0; k < n; ++k) {
    jobs.push_back({.id = k + 1,
                    .release = 0.0,
                    .deadline = 150.0,
                    .demand = rng.uniform(80.0, 300.0)});
  }
  AgreeableJobSet set(jobs);
  std::vector<double> w;
  for (std::size_t k = 0; k < n; ++k) w.push_back(rng.uniform(0.5, 4.0));
  const auto r = weighted_quality_opt_schedule(set.jobs(), 0.8, w, kF);
  const double base = r.weighted_quality;
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      if (a == b) continue;
      const double eps = 5.0;
      if (r.volumes[a] < eps) continue;
      if (r.volumes[b] + eps > set[b].demand) continue;
      double moved = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        const double p = r.volumes[k] + (k == b ? eps : 0.0) -
                         (k == a ? eps : 0.0);
        moved += w[k] * kF(p);
      }
      EXPECT_LE(moved, base + 1e-7)
          << "transfer " << a << "->" << b << " improved the objective";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WeightedPropertyTest,
                         ::testing::Values(51u, 52u, 53u));

}  // namespace
}  // namespace qes
