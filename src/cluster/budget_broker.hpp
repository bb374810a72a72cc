// BudgetBroker: hierarchical water-filling of the global power budget.
//
// The paper splits one server's budget H across its cores by
// water-filling the per-core power requests (§IV-C); Vaze & Nair show
// the same structure is optimal for splitting a *sum* power constraint
// across servers. So the cluster runs WF twice: the broker water-fills
// H across nodes from their reported budget-free power requests
// (RuntimeCore::power_request()), and each node's own replan
// water-fills its slice across cores. The node demand is the exact
// quantity its next replan would compute as `total_request`, so a node
// whose slice covers its demand plans exactly as it would standalone.
//
// Two invariants the property tests pin down (tests/cluster_broker_test):
//
//   conservation  Σ filled == min(H, Σ demand)   (from alloc/waterfill)
//   monotonicity  a node's budget never decreases when only its own
//                 demand grows (fairness: reporting more load never
//                 costs you power)
//
// The headroom H − Σ filled is handed back in equal shares, so the live
// budgets always sum to exactly H: a node hit by a load spike between
// broker periods can use slack the others did not claim, and an N=1
// cluster always runs at budget H — which is what makes the N=1
// lockstep conformance against a standalone server *exact*.
//
// A saturated split (zero headroom) can hand an idle live node exactly
// 0 W. A live RuntimeCore requires budget > 0 and may be routed work
// before the next decision, so BudgetBroker::decide floors the *applied*
// budget at a negligible positive trickle; the split itself stays pure.
//
// Static draw (the wall-power broker): each live node burns cores × b
// whatever its plans say, so the live nodes' draws come off H up front
// and only the remainder is water-filled across the dynamic demands. The
// budgets stay dynamic budgets — exactly what
// RuntimeCore::set_power_budget expects. Dead nodes draw nothing (their
// sockets are off).
#pragma once

#include <cstddef>
#include <vector>

#include "alloc/waterfill.hpp"
#include "core/time.hpp"

namespace qes::cluster {

/// One broker decision. `filled` is the raw water-fill allocation
/// (Σ == min(H, Σ demand)); `budgets` adds the equal-share headroom
/// (Σ == H across live nodes). Dead nodes (negative demand) get zero in
/// both.
struct BrokerSplit {
  std::vector<Watts> filled;
  std::vector<Watts> budgets;
};

/// Splits `total_budget` across nodes from their reported demands, with
/// no static draw. demands[i] < 0 marks node i dead (allocated zero); at
/// least one node must be live.
[[nodiscard]] BrokerSplit broker_split(const std::vector<Watts>& demands,
                                       Watts total_budget);

/// The split's reusable temporaries (a steady-state broker stays off
/// the heap).
struct BrokerSplitScratch {
  std::vector<std::size_t> live;
  std::vector<Work> caps;
  WaterfillScratch waterfill_scratch;
  WaterfillResult waterfill;
};

/// The cluster's budget broker: the one decision that turns a split into
/// the budgets applied to nodes. It holds H, each node's applied budget
/// and the per-node static draw; the owner (cluster::Cluster live, the
/// cluster lockstep in sim) runs the cadence, supplies the demand
/// reports, and pushes changed() into its nodes.
class BudgetBroker {
 public:
  /// Budget changes at or below this are not applied (no forced replan):
  /// it absorbs the fp noise of the surplus arithmetic, so an N=1
  /// cluster — whose split is exactly H every decision — never replans
  /// off-schedule.
  static constexpr Watts kBudgetTol = 1e-9;
  /// Applied-budget floor of a live node (never active for N=1).
  static constexpr Watts kMinLiveBudget = 1e-9;

  /// `nodes` nodes, each drawing `node_static` W (cores × b) while live;
  /// every node starts at the equal share H / nodes.
  BudgetBroker(Watts total_budget, std::size_t nodes, Watts node_static);

  /// One decision over the nodes' budget-free power requests (negative
  /// marks a dead node): splits H, floors each live grant at
  /// kMinLiveBudget, and lists in changed() the live nodes whose applied
  /// budget moved by more than kBudgetTol. Returns false, changing
  /// nothing, when no node is live.
  bool decide(const std::vector<Watts>& demands);

  /// The last decision's pure split — what the owners log (a floored
  /// grant still reads 0 here).
  [[nodiscard]] const BrokerSplit& split() const { return split_; }
  /// Live nodes whose applied budget the last decision changed, in
  /// ascending order.
  [[nodiscard]] const std::vector<std::size_t>& changed() const {
    return changed_;
  }
  /// The budget applied to node `i`.
  [[nodiscard]] Watts budget(std::size_t i) const { return applied_.at(i); }
  [[nodiscard]] Watts total_budget() const { return total_budget_; }

  /// Mid-run budget step (brownout / recovery chaos): subsequent
  /// decisions water-fill the new H. The owner must decide again
  /// immediately so no node keeps running against the old bound.
  void set_total_budget(Watts h);

 private:
  Watts total_budget_;
  Watts node_static_;
  std::vector<Watts> applied_;
  std::vector<std::size_t> changed_;
  BrokerSplitScratch scratch_;
  BrokerSplit split_;
};

}  // namespace qes::cluster
