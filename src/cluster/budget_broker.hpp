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
// 0 W; the owners floor the *applied* budget at a negligible positive
// trickle, because a live RuntimeCore requires budget > 0 and may be
// routed work before the next decision. The split itself stays pure.
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

/// Splits `total_budget` across nodes from their reported demands.
/// demands[i] < 0 marks node i dead (allocated zero); at least one node
/// must be live.
[[nodiscard]] BrokerSplit broker_split(const std::vector<Watts>& demands,
                                       Watts total_budget);

/// Static-draw-aware split: `total_budget` is a *wall-power* bound that
/// also covers each live node's unavoidable static draw (its cores ×
/// active-idle floor b, or whatever the owner attributes). The live
/// nodes' draws are subtracted from H up front and only the remainder
/// is water-filled across the dynamic demands, so the returned budgets
/// stay dynamic budgets — exactly what RuntimeCore::set_power_budget
/// expects. Dead nodes contribute no draw (their sockets are off).
/// With every draw zero this is bit-identical to the overload above,
/// which keeps the b == 0 lockstep/conformance planes byte-stable.
[[nodiscard]] BrokerSplit broker_split(const std::vector<Watts>& demands,
                                       Watts total_budget,
                                       const std::vector<Watts>& static_draws);

/// Reusable buffers for broker_split_into (contents are implementation
/// detail; callers just keep one alive across calls).
struct BrokerSplitScratch {
  std::vector<std::size_t> live;
  std::vector<Work> caps;
  WaterfillScratch waterfill_scratch;
  WaterfillResult waterfill;
};

/// Identical arithmetic to broker_split, but fills `out` and draws
/// temporaries from `scratch`, so a steady-state broker stays off the
/// heap. `static_draws` may be empty (no static draw).
void broker_split_into(const std::vector<Watts>& demands, Watts total_budget,
                       const std::vector<Watts>& static_draws,
                       BrokerSplitScratch& scratch, BrokerSplit& out);

/// The periodic re-water-filling policy: holds the global budget H and
/// the cadence; the owner (cluster::Cluster live, cluster lockstep in
/// sim) supplies the clock and the demand reports.
class BudgetBroker {
 public:
  BudgetBroker(Watts total_budget, Time period_ms);

  [[nodiscard]] BrokerSplit split(const std::vector<Watts>& demands) const {
    return broker_split(demands, total_budget_);
  }

  [[nodiscard]] BrokerSplit split(
      const std::vector<Watts>& demands,
      const std::vector<Watts>& static_draws) const {
    return broker_split(demands, total_budget_, static_draws);
  }

  void split_into(const std::vector<Watts>& demands,
                  const std::vector<Watts>& static_draws,
                  BrokerSplitScratch& scratch, BrokerSplit& out) const {
    broker_split_into(demands, total_budget_, static_draws, scratch, out);
  }

  [[nodiscard]] Watts total_budget() const { return total_budget_; }
  [[nodiscard]] Time period_ms() const { return period_ms_; }

  /// Mid-run budget step (brownout / recovery chaos): subsequent splits
  /// water-fill the new H. The owner must force a re-split immediately
  /// so no node keeps running against the old bound.
  void set_total_budget(Watts h);

 private:
  Watts total_budget_;
  Time period_ms_;
};

}  // namespace qes::cluster
