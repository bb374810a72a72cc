// Property tests of the hierarchical water-fill broker, pinning the two
// invariants documented in src/cluster/budget_broker.hpp:
//
//   conservation   Σ filled == min(H, Σ demand) and Σ budgets == H over
//                  the live nodes, for any demand vector
//   monotonicity   a node's final budget never decreases when only its
//                  own reported load grows
//
// plus BudgetBroker::decide, which turns a split into applied budgets.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "cluster/budget_broker.hpp"
#include "core/prng.hpp"

namespace qes::cluster {
namespace {

constexpr double kTol = 1e-9;

double live_sum(const std::vector<Watts>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

std::vector<Watts> random_demands(Xoshiro256& rng, std::size_t n,
                                  double scale) {
  std::vector<Watts> d(n);
  for (Watts& x : d) {
    // Mix of idle, light, and heavy nodes, occasionally exactly zero.
    const double u = rng.uniform(0.0, 1.0);
    x = u < 0.1 ? 0.0 : u * scale;
  }
  return d;
}

TEST(BrokerSplit, ConservationOverRandomLoads) {
  Xoshiro256 rng(17);
  for (int iter = 0; iter < 500; ++iter) {
    const std::size_t n = 1 + rng.uniform_index(8);
    const double h = 10.0 + rng.uniform(0.0, 1.0) * 600.0;
    const std::vector<Watts> demands =
        random_demands(rng, n, /*scale=*/2.0 * h / static_cast<double>(n));
    const BrokerSplit s = broker_split(demands, h);
    ASSERT_EQ(s.filled.size(), n);
    ASSERT_EQ(s.budgets.size(), n);
    // Water-fill conservation: exactly min(H, Σ demand) is allocated.
    const double want = std::min(h, live_sum(demands));
    EXPECT_NEAR(live_sum(s.filled), want, kTol * std::max(1.0, want));
    // Headroom hand-back: the final budgets always sum to exactly H.
    EXPECT_NEAR(live_sum(s.budgets), h, kTol * h);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_GE(s.filled[i], -kTol);
      // No node is filled past its own request.
      EXPECT_LE(s.filled[i], demands[i] + kTol);
      EXPECT_GE(s.budgets[i], s.filled[i] - kTol);
    }
  }
}

TEST(BrokerSplit, BudgetMonotoneInOwnLoad) {
  Xoshiro256 rng(23);
  for (int iter = 0; iter < 500; ++iter) {
    const std::size_t n = 2 + rng.uniform_index(7);
    const double h = 50.0 + rng.uniform(0.0, 1.0) * 500.0;
    std::vector<Watts> demands =
        random_demands(rng, n, /*scale=*/2.0 * h / static_cast<double>(n));
    const std::size_t i = rng.uniform_index(n);
    const BrokerSplit before = broker_split(demands, h);
    // Grow only node i's reported load; everyone else unchanged.
    demands[i] += rng.uniform(0.0, 1.0) * h;
    const BrokerSplit after = broker_split(demands, h);
    EXPECT_GE(after.budgets[i], before.budgets[i] - kTol * h)
        << "reporting more load cost node " << i << " power";
  }
}

TEST(BrokerSplit, DeadNodesGetZeroAndSurvivorsSplitH) {
  const double h = 300.0;
  const std::vector<Watts> demands{120.0, -1.0, 40.0, -1.0};
  const BrokerSplit s = broker_split(demands, h);
  EXPECT_EQ(s.filled[1], 0.0);
  EXPECT_EQ(s.budgets[1], 0.0);
  EXPECT_EQ(s.filled[3], 0.0);
  EXPECT_EQ(s.budgets[3], 0.0);
  // The live pair is unsaturated (160 < 300): both fully filled, and the
  // headroom comes back in equal shares so the budgets still sum to H.
  EXPECT_NEAR(s.filled[0], 120.0, kTol);
  EXPECT_NEAR(s.filled[2], 40.0, kTol);
  EXPECT_NEAR(s.budgets[0] + s.budgets[2], h, kTol);
  EXPECT_NEAR(s.budgets[0] - s.filled[0], s.budgets[2] - s.filled[2], kTol);
}

TEST(BrokerSplit, SaturatedSplitIsWaterLevel) {
  // Demands far beyond H: water-filling converges to an equal split for
  // symmetric demands, and never allocates more than the request.
  const double h = 100.0;
  const BrokerSplit s = broker_split({500.0, 500.0}, h);
  EXPECT_NEAR(s.budgets[0], 50.0, kTol);
  EXPECT_NEAR(s.budgets[1], 50.0, kTol);
  // Asymmetric saturation: the small demand is fully covered, the rest
  // of H goes to the big one.
  const BrokerSplit t = broker_split({10.0, 500.0}, h);
  EXPECT_NEAR(t.filled[0], 10.0, kTol);
  EXPECT_NEAR(t.filled[1], 90.0, kTol);
  EXPECT_NEAR(t.budgets[0] + t.budgets[1], h, kTol);
}

TEST(BrokerSplit, SingleLiveNodeAlwaysGetsH) {
  // The N=1 identity the cluster conformance relies on: whatever the
  // node reports, its budget is H up to one ulp of surplus arithmetic
  // (filled + (H - filled)); the lockstep's change threshold absorbs
  // that noise, so the lone node never sees a budget change.
  for (const double demand : {0.0, 1.0, 99.5, 1e6}) {
    const BrokerSplit s = broker_split({demand}, 320.0);
    EXPECT_NEAR(s.budgets[0], 320.0, 1e-10);
  }
  const BrokerSplit s = broker_split({-1.0, 42.0, -1.0}, 320.0);
  EXPECT_NEAR(s.budgets[1], 320.0, 1e-10);
}

// BudgetBroker::decide, the one step both cluster drivers call: the
// split becomes the budgets applied to live nodes, floored at a trickle,
// with round-off moves skipped and dead nodes never reported.
TEST(BudgetBroker, DecideAppliesTheSplitToLiveNodes) {
  using Nodes = std::vector<std::size_t>;
  // Every node starts at the equal share of H.
  BudgetBroker broker(300.0, 3, /*node_static=*/0.0);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(broker.budget(i), 100.0);

  // No live node: no decision, and nothing changes.
  EXPECT_FALSE(broker.decide({-1.0, -1.0, -1.0}));
  EXPECT_TRUE(broker.changed().empty());
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(broker.budget(i), 100.0);

  // Node 2 saturates H, so the split hands idle node 0 exactly 0 W; the
  // applied budget is floored at 1e-9 W while the logged split stays 0.
  // Dead node 1 (split 0 W) keeps its last budget and is never reported.
  ASSERT_TRUE(broker.decide({0.0, -1.0, 500.0}));
  EXPECT_EQ(broker.split().budgets[0], 0.0);
  EXPECT_EQ(broker.split().budgets[1], 0.0);
  EXPECT_DOUBLE_EQ(broker.split().budgets[2], 300.0);
  EXPECT_EQ(broker.budget(0), 1e-9);
  EXPECT_EQ(broker.budget(1), 100.0);
  EXPECT_DOUBLE_EQ(broker.budget(2), 300.0);
  EXPECT_EQ(broker.changed(), (Nodes{0, 2}));

  // Moves of at most 1e-9 W are round-off, not decisions: a demand
  // change of 1e-10 W moves each split by 5e-11 W and applies nothing;
  // one of 1e-6 W applies to both nodes.
  BudgetBroker pair(640.0, 2, /*node_static=*/0.0);
  ASSERT_TRUE(pair.decide({100.0, 100.0}));
  EXPECT_TRUE(pair.changed().empty());
  ASSERT_TRUE(pair.decide({100.0, 100.0 + 1e-10}));
  ASSERT_NE(pair.split().budgets[0], pair.budget(0));
  EXPECT_TRUE(pair.changed().empty());
  EXPECT_EQ(pair.budget(0), 320.0);
  ASSERT_TRUE(pair.decide({100.0, 100.0 + 1e-6}));
  EXPECT_EQ(pair.changed(), (Nodes{0, 1}));

  // The live nodes' static draw comes off H before the split: two nodes
  // drawing 10 W each leave 80 W of a 100 W bound; a dead node draws
  // nothing, so its survivor gets 90 W.
  BudgetBroker wall(100.0, 2, /*node_static=*/10.0);
  ASSERT_TRUE(wall.decide({0.0, 0.0}));
  EXPECT_EQ(wall.budget(0), 40.0);
  EXPECT_EQ(wall.budget(1), 40.0);
  ASSERT_TRUE(wall.decide({0.0, -1.0}));
  EXPECT_EQ(wall.budget(0), 90.0);
  EXPECT_EQ(wall.changed(), (Nodes{0}));
}

}  // namespace
}  // namespace qes::cluster
