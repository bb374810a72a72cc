// Cluster-level request routing (the front end's "which node" decision).
//
// Three pluggable policies, all consuming the per-node queue-depth
// signal the nodes already export as obs gauges:
//
//   crr  cluster-level Cumulative Round-Robin — the paper's §IV-B job
//        distribution lifted one level up: the dealing cursor persists
//        across requests, so long-run per-node request counts stay
//        balanced with zero state exchange.
//   jsq  join-shortest-queue — route to the node with the smallest
//        admission-queue depth (ties break to the lowest index, so the
//        decision is deterministic given the depth vector).
//   p2c  power-of-two-choices — sample two distinct live nodes with the
//        dispatcher's own deterministic PRNG and take the shallower
//        queue; near-JSQ balance at O(1) state reads.
//
// A node is marked unroutable (draining or dead) by reporting an
// infinite depth; route() never selects it. The dispatcher itself is
// NOT thread-safe — the cluster front end serializes route() calls.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/prng.hpp"

namespace qes::cluster {

enum class DispatchPolicy { CRR, JSQ, PowerOfTwo };

/// Parses "crr" / "jsq" / "p2c"; nullopt on anything else.
[[nodiscard]] std::optional<DispatchPolicy> parse_dispatch_policy(
    const std::string& name);

[[nodiscard]] const char* dispatch_policy_name(DispatchPolicy policy);

class Dispatcher {
 public:
  /// `seed` feeds the p2c sampler only; crr/jsq are PRNG-free.
  Dispatcher(std::size_t nodes, DispatchPolicy policy, std::uint64_t seed = 1);

  /// Picks a node for the next request. `depths[i]` is node i's
  /// admission-queue depth; +infinity marks the node unroutable.
  /// Returns -1 when every node is unroutable.
  [[nodiscard]] int route(std::span<const double> depths);

  [[nodiscard]] DispatchPolicy policy() const { return policy_; }
  [[nodiscard]] std::size_t nodes() const { return nodes_; }

 private:
  [[nodiscard]] int route_crr(std::span<const double> depths);
  [[nodiscard]] int route_jsq(std::span<const double> depths) const;
  [[nodiscard]] int route_p2c(std::span<const double> depths);

  std::size_t nodes_;
  DispatchPolicy policy_;
  std::size_t cursor_ = 0;  // crr's persistent dealing cursor
  Xoshiro256 rng_;
  std::vector<std::size_t> live_;  // p2c's routable nodes, refilled per call
};

}  // namespace qes::cluster
