#include "cluster/dispatch.hpp"

#include <algorithm>
#include <cmath>

#include "core/assert.hpp"

namespace qes::cluster {

std::optional<DispatchPolicy> parse_dispatch_policy(const std::string& name) {
  if (name == "crr") return DispatchPolicy::CRR;
  if (name == "jsq") return DispatchPolicy::JSQ;
  if (name == "p2c") return DispatchPolicy::PowerOfTwo;
  return std::nullopt;
}

const char* dispatch_policy_name(DispatchPolicy policy) {
  switch (policy) {
    case DispatchPolicy::CRR: return "crr";
    case DispatchPolicy::JSQ: return "jsq";
    case DispatchPolicy::PowerOfTwo: return "p2c";
  }
  return "?";
}

Dispatcher::Dispatcher(std::size_t nodes, DispatchPolicy policy,
                       std::uint64_t seed)
    : nodes_(nodes), policy_(policy), rng_(seed) {
  QES_ASSERT(nodes > 0);
  live_.reserve(nodes);
}

int Dispatcher::route(std::span<const double> depths) {
  QES_ASSERT(depths.size() == nodes_);
  switch (policy_) {
    case DispatchPolicy::CRR: return route_crr(depths);
    case DispatchPolicy::JSQ: return route_jsq(depths);
    case DispatchPolicy::PowerOfTwo: return route_p2c(depths);
  }
  return -1;
}

int Dispatcher::route_crr(std::span<const double> depths) {
  // Deal from the persistent cursor, skipping unroutable nodes; the
  // cursor advances past the chosen node exactly as C-RR's does.
  for (std::size_t k = 0; k < nodes_; ++k) {
    const std::size_t i = (cursor_ + k) % nodes_;
    if (std::isinf(depths[i])) continue;
    cursor_ = (i + 1) % nodes_;
    return static_cast<int>(i);
  }
  return -1;
}

int Dispatcher::route_jsq(std::span<const double> depths) const {
  int best = -1;
  for (std::size_t i = 0; i < nodes_; ++i) {
    if (std::isinf(depths[i])) continue;
    if (best < 0 || depths[i] < depths[static_cast<std::size_t>(best)]) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

int Dispatcher::route_p2c(std::span<const double> depths) {
  std::vector<std::size_t>& live = live_;
  live.clear();
  for (std::size_t i = 0; i < nodes_; ++i) {
    if (!std::isinf(depths[i])) live.push_back(i);
  }
  if (live.empty()) return -1;
  if (live.size() == 1) return static_cast<int>(live[0]);
  // Two distinct choices: the second draw samples [0, n-1) and skips
  // over the first draw's position.
  const std::size_t pos_a = rng_.uniform_index(live.size());
  std::size_t pos_b = rng_.uniform_index(live.size() - 1);
  if (pos_b >= pos_a) ++pos_b;
  const std::size_t a = live[pos_a];
  const std::size_t b = live[pos_b];
  const std::size_t pick =
      depths[b] < depths[a] ? b : (depths[a] < depths[b] ? a : std::min(a, b));
  return static_cast<int>(pick);
}

}  // namespace qes::cluster
