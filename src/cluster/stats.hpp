// Cluster-level run statistics: per-node RunStats plus the aggregates
// and cluster-only accounting (routing sheds, kill redistribution, the
// broker decision log). Shared by the deterministic lockstep replay
// (lockstep.hpp) and the live multi-threaded cluster (cluster.hpp).
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "core/time.hpp"
#include "sim/metrics.hpp"

namespace qes::cluster {

struct ClusterRunStats {
  std::vector<RunStats> node_stats;
  std::vector<bool> killed;

  // Cluster aggregates, filled by finalize_aggregates() (sums over
  // nodes unless noted).
  double total_quality = 0.0;
  double max_quality = 0.0;
  double normalized_quality = 0.0;  ///< total / max
  Joules dynamic_energy = 0.0;
  Joules static_energy = 0.0;
  Joules wake_energy = 0.0;
  std::size_t core_wakes = 0;
  Watts peak_node_power = 0.0;  ///< max over nodes of per-node peak
  Time end_time = 0.0;          ///< max over nodes
  std::size_t jobs_total = 0;
  std::size_t jobs_satisfied = 0;
  std::size_t jobs_partial = 0;
  std::size_t jobs_zero = 0;
  std::size_t jobs_discarded_rigid = 0;
  std::size_t replans = 0;

  // Cluster-level accounting. Conservation, with K submitted requests
  // (lockstep; the live cluster adds per-node admission sheds):
  //   K == route_shed + redistribute_shed [+ Σ node shed] + Σ jobs_total
  // — every request lands in exactly one node's statistics or is shed.
  std::size_t route_shed = 0;         ///< arrivals with no routable node
  std::size_t redistributed = 0;      ///< kill-orphans re-dispatched
  std::size_t redistribute_shed = 0;  ///< kill-orphans with no survivor
  std::size_t node_shed = 0;          ///< Σ per-node admission sheds (live)

  /// Total planned cluster power sampled at every broker decision;
  /// bounded by H (each node's advance asserts its own budget).
  Watts max_cluster_power = 0.0;

  /// One broker decision: its time and the per-node budgets it split H
  /// into (budgets[i] == 0 for dead nodes), viewed in the log.
  struct BrokerDecision {
    Time t = 0.0;
    std::span<const Watts> budgets;
  };

  /// Every broker decision (initial split, periodic ticks, kill
  /// re-splits), in time order, stored flat: the decision times plus one
  /// nodes × decisions budget array, so a decision costs two appends
  /// rather than a vector of its own. Iteration, back() and operator[]
  /// yield BrokerDecision views, valid until the log next changes.
  class BrokerLog {
   public:
    class Iterator {
     public:
      [[nodiscard]] BrokerDecision operator*() const { return (*log_)[i_]; }
      Iterator& operator++() {
        ++i_;
        return *this;
      }
      [[nodiscard]] bool operator==(const Iterator&) const = default;

     private:
      friend class BrokerLog;
      Iterator(const BrokerLog* log, std::size_t i) : log_(log), i_(i) {}
      const BrokerLog* log_;
      std::size_t i_;
    };

    /// Appends a decision; every decision of one log covers the same
    /// node count.
    void push(Time t, std::span<const Watts> budgets);

    [[nodiscard]] std::size_t size() const { return times_.size(); }
    [[nodiscard]] bool empty() const { return times_.empty(); }
    [[nodiscard]] BrokerDecision operator[](std::size_t i) const {
      return {times_[i], std::span<const Watts>(budgets_).subspan(
                             i * nodes_, nodes_)};
    }
    [[nodiscard]] BrokerDecision back() const { return (*this)[size() - 1]; }
    [[nodiscard]] Iterator begin() const { return {this, 0}; }
    [[nodiscard]] Iterator end() const { return {this, size()}; }
    void clear() {
      times_.clear();
      budgets_.clear();
    }
    void shrink_to_fit() {
      times_.shrink_to_fit();
      budgets_.shrink_to_fit();
    }

   private:
    std::vector<Time> times_;
    std::vector<Watts> budgets_;
    std::size_t nodes_ = 0;
  };
  BrokerLog broker_log;

  /// Total planned cluster power and the global budget H in force,
  /// sampled at every broker decision — the observable form of the
  /// "Σ applied power <= H at every broker tick" invariant (H varies
  /// under budget-step chaos).
  struct PowerSample {
    Time t = 0.0;
    Watts power = 0.0;
    Watts budget = 0.0;
  };
  std::vector<PowerSample> power_samples;
};

/// Recomputes the aggregate fields from node_stats.
void finalize_aggregates(ClusterRunStats& stats);

/// One-line JSON rendering: cluster aggregates plus a per-node array of
/// stats_to_json objects.
[[nodiscard]] std::string cluster_stats_to_json(const ClusterRunStats& stats);

}  // namespace qes::cluster
