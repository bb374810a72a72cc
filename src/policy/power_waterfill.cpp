#include "policy/power_waterfill.hpp"

#include <algorithm>
#include <numeric>

#include "core/assert.hpp"

namespace qes {

void waterfill_power_into(std::span<const Watts> requested, Watts budget,
                          WaterfillPowerScratch& scratch,
                          std::vector<Watts>& out) {
  QES_ASSERT(budget >= 0.0);
  const std::size_t m = requested.size();
  out.assign(m, 0.0);
  for (Watts h : requested) QES_ASSERT(h >= 0.0);

  // The paper's iterative formulation: repeatedly raise every unsatisfied
  // core by the smallest outstanding request, or split the remainder
  // evenly when it no longer covers that raise. A core is unsatisfied
  // while its outstanding request (its request less every raise so far,
  // subtracted in order) exceeds kTimeEps.
  //
  // Rounding is monotone, so subtracting one raise from every
  // outstanding request keeps them in request order: with the cores
  // sorted by request once, the unsatisfied cores are always a suffix,
  // the smallest outstanding request is the front core's, and only the
  // front core's needs evaluating. Every unsatisfied core has received
  // the same raises in the same order, so one shared assignment `level`
  // stands for all of them; a core that retires keeps the level of its
  // last round. `remaining` still pays each unsatisfied core's raise one
  // subtraction at a time, as the per-core loop did: its bits depend on
  // that chain.
  std::vector<std::size_t>& order = scratch.order;
  order.resize(m);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return requested[a] < requested[b];
  });
  std::vector<Watts>& raises = scratch.raises;
  raises.clear();

  std::size_t front = 0;  // cores order[0..front) are satisfied
  while (front < m && requested[order[front]] <= kTimeEps) ++front;
  Watts front_outstanding = front < m ? requested[order[front]] : 0.0;
  Watts remaining = budget;
  Watts level = 0.0;
  while (true) {
    if (front == m || remaining <= kTimeEps) break;
    const std::size_t unsatisfied = m - front;
    const Watts h_min = front_outstanding;
    if (h_min * static_cast<double>(unsatisfied) >= remaining) {
      level += remaining / static_cast<double>(unsatisfied);
      break;
    }
    level += h_min;
    for (std::size_t k = 0; k < unsatisfied; ++k) remaining -= h_min;
    raises.push_back(h_min);
    front_outstanding -= h_min;
    while (front_outstanding <= kTimeEps) {
      out[order[front]] = level;
      if (++front == m) break;
      Watts h = requested[order[front]];
      for (Watts r : raises) h -= r;
      front_outstanding = h;
    }
  }
  for (std::size_t k = front; k < m; ++k) out[order[k]] = level;
}

std::vector<Watts> waterfill_power(std::span<const Watts> requested,
                                   Watts budget) {
  WaterfillPowerScratch scratch;
  std::vector<Watts> assigned;
  waterfill_power_into(requested, budget, scratch, assigned);
  return assigned;
}

std::vector<std::optional<Speed>> rectify_speeds_discrete(
    std::span<const Speed> continuous, Watts budget,
    const DiscreteSpeedSet& levels, const PowerModel& pm) {
  QES_ASSERT(!levels.empty());
  const std::size_t m = continuous.size();

  // Pool of slack: budget minus the power of the continuous assignment.
  Watts used = 0.0;
  for (Speed s : continuous) used += pm.dynamic_power(s);
  QES_ASSERT_MSG(used <= budget + 1e-6,
                 "continuous speeds must already fit the budget");
  Watts slack = budget - used;

  // Process cores from the lowest continuous power upward (§V-F).
  std::vector<std::size_t> order(m);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return continuous[a] < continuous[b];
                   });

  std::vector<std::optional<Speed>> out(m, std::nullopt);
  for (std::size_t i : order) {
    const Speed s = continuous[i];
    if (s <= kTimeEps) continue;  // idle core stays idle
    const Watts own = pm.dynamic_power(s);
    const std::optional<Speed> up = levels.snap_up(s);
    if (up && pm.dynamic_power(*up) - own <= slack + kTimeEps) {
      out[i] = *up;
      slack -= pm.dynamic_power(*up) - own;
      continue;
    }
    // Walk down to the largest affordable level (frees slack).
    const auto& lv = levels.levels();
    for (auto it = lv.rbegin(); it != lv.rend(); ++it) {
      if (*it <= s + kTimeEps &&
          pm.dynamic_power(*it) - own <= slack + kTimeEps) {
        out[i] = *it;
        slack -= pm.dynamic_power(*it) - own;
        break;
      }
    }
    if (!out[i]) slack += own;  // nothing affordable: the core idles
  }
  return out;
}

}  // namespace qes
