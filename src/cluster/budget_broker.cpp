#include "cluster/budget_broker.hpp"

#include <algorithm>
#include <span>

#include "core/assert.hpp"

namespace qes::cluster {

BudgetBroker::BudgetBroker(Watts total_budget, Time period_ms)
    : total_budget_(total_budget), period_ms_(period_ms) {
  QES_ASSERT(total_budget > 0.0 && period_ms > 0.0);
}

void BudgetBroker::set_total_budget(Watts h) {
  QES_ASSERT_MSG(h > 0.0, "budget step must keep H positive");
  total_budget_ = h;
}

BrokerSplit broker_split(const std::vector<Watts>& demands,
                         Watts total_budget) {
  return broker_split(demands, total_budget, {});
}

BrokerSplit broker_split(const std::vector<Watts>& demands,
                         Watts total_budget,
                         const std::vector<Watts>& static_draws) {
  BrokerSplitScratch scratch;
  BrokerSplit out;
  broker_split_into(demands, total_budget, static_draws, scratch, out);
  return out;
}

void broker_split_into(const std::vector<Watts>& demands, Watts total_budget,
                       const std::vector<Watts>& static_draws,
                       BrokerSplitScratch& scratch, BrokerSplit& out) {
  QES_ASSERT(total_budget > 0.0 && !demands.empty());
  QES_ASSERT(static_draws.empty() || static_draws.size() == demands.size());
  const std::size_t n = demands.size();

  std::vector<std::size_t>& live = scratch.live;
  std::vector<Work>& caps = scratch.caps;
  live.clear();
  caps.clear();
  Watts static_total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (demands[i] < 0.0) continue;  // dead node
    live.push_back(i);
    caps.push_back(demands[i]);
    if (!static_draws.empty()) static_total += static_draws[i];
  }
  QES_ASSERT_MSG(!live.empty(), "broker_split needs at least one live node");

  // The live nodes' static draw is spent no matter what the plans do;
  // only the remainder of H is schedulable dynamic power. `x - 0.0 == x`
  // bitwise, so the zero-draw path reproduces the legacy split exactly.
  const Watts dyn_budget = total_budget - static_total;
  QES_ASSERT_MSG(dyn_budget > 0.0,
                 "static draw of the live nodes exhausts the global budget");

  // Level 1 of the hierarchy: water-fill the dynamic headroom across the
  // live nodes' demands — the same primitive the per-node replan uses
  // across cores.
  waterfill_volumes_into(std::span<const Work>(caps), dyn_budget,
                         scratch.waterfill_scratch, scratch.waterfill);
  const WaterfillResult& wf = scratch.waterfill;

  out.filled.assign(n, 0.0);
  out.budgets.assign(n, 0.0);
  Watts used = 0.0;
  for (std::size_t k = 0; k < live.size(); ++k) {
    out.filled[live[k]] = wf.alloc[k];
    used += wf.alloc[k];
  }
  // Unclaimed headroom goes back in equal shares so Σ budgets == H − Σ
  // static: slack stays usable between broker periods, and an N=1
  // cluster always runs at exactly its dynamic headroom. Equal shares
  // keep the split monotone in each node's own demand (WF share is
  // monotone; the surplus term only shrinks by the amount every node's
  // shrinks).
  const Watts surplus = (dyn_budget - used) / static_cast<double>(live.size());
  for (std::size_t i : live) {
    out.budgets[i] = out.filled[i] + std::max(surplus, 0.0);
  }
}

}  // namespace qes::cluster
