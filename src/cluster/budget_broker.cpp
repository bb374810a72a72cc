#include "cluster/budget_broker.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "core/assert.hpp"

namespace qes::cluster {

namespace {

// The split with each live node drawing `node_static` W of static power
// off `total_budget` first, into `out` with temporaries from `scratch`.
// With node_static == 0 it is the split without draws, bit for bit.
void split_into(const std::vector<Watts>& demands, Watts total_budget,
                Watts node_static, BrokerSplitScratch& scratch,
                BrokerSplit& out) {
  QES_ASSERT(total_budget > 0.0 && !demands.empty());
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
    static_total += node_static;
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

}  // namespace

BudgetBroker::BudgetBroker(Watts total_budget, std::size_t nodes,
                           Watts node_static)
    : total_budget_(total_budget),
      node_static_(node_static),
      applied_(nodes, total_budget / static_cast<double>(nodes)) {
  QES_ASSERT(total_budget > 0.0 && nodes > 0 && node_static >= 0.0);
  changed_.reserve(nodes);
}

void BudgetBroker::set_total_budget(Watts h) {
  QES_ASSERT_MSG(h > 0.0, "budget step must keep H positive");
  total_budget_ = h;
}

bool BudgetBroker::decide(const std::vector<Watts>& demands) {
  QES_ASSERT(demands.size() == applied_.size());
  if (std::none_of(demands.begin(), demands.end(),
                   [](Watts d) { return d >= 0.0; })) {
    return false;
  }
  split_into(demands, total_budget_, node_static_, scratch_, split_);
  changed_.clear();
  for (std::size_t i = 0; i < demands.size(); ++i) {
    if (demands[i] < 0.0) continue;  // dead: nothing to apply
    const Watts granted = std::max(split_.budgets[i], kMinLiveBudget);
    if (std::fabs(granted - applied_[i]) > kBudgetTol) {
      applied_[i] = granted;
      changed_.push_back(i);
    }
  }
  return true;
}

BrokerSplit broker_split(const std::vector<Watts>& demands,
                         Watts total_budget) {
  BrokerSplitScratch scratch;
  BrokerSplit out;
  split_into(demands, total_budget, /*node_static=*/0.0, scratch, out);
  return out;
}

}  // namespace qes::cluster
