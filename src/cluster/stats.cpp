#include "cluster/stats.hpp"

#include <algorithm>
#include <cstdio>

#include "core/assert.hpp"

namespace qes::cluster {

void ClusterRunStats::BrokerLog::push(Time t, std::span<const Watts> budgets) {
  if (times_.empty()) nodes_ = budgets.size();
  QES_ASSERT(budgets.size() == nodes_);
  times_.push_back(t);
  budgets_.insert(budgets_.end(), budgets.begin(), budgets.end());
}

void finalize_aggregates(ClusterRunStats& stats) {
  stats.total_quality = 0.0;
  stats.max_quality = 0.0;
  stats.dynamic_energy = 0.0;
  stats.static_energy = 0.0;
  stats.wake_energy = 0.0;
  stats.core_wakes = 0;
  stats.peak_node_power = 0.0;
  stats.end_time = 0.0;
  stats.jobs_total = 0;
  stats.jobs_satisfied = 0;
  stats.jobs_partial = 0;
  stats.jobs_zero = 0;
  stats.jobs_discarded_rigid = 0;
  stats.replans = 0;
  for (const RunStats& s : stats.node_stats) {
    stats.total_quality += s.total_quality;
    stats.max_quality += s.max_quality;
    stats.dynamic_energy += s.dynamic_energy;
    stats.static_energy += s.static_energy;
    stats.wake_energy += s.wake_energy;
    stats.core_wakes += s.core_wakes;
    stats.peak_node_power = std::max(stats.peak_node_power, s.peak_power);
    stats.end_time = std::max(stats.end_time, s.end_time);
    stats.jobs_total += s.jobs_total;
    stats.jobs_satisfied += s.jobs_satisfied;
    stats.jobs_partial += s.jobs_partial;
    stats.jobs_zero += s.jobs_zero;
    stats.jobs_discarded_rigid += s.jobs_discarded_rigid;
    stats.replans += s.replans;
  }
  stats.normalized_quality =
      stats.max_quality > 0.0 ? stats.total_quality / stats.max_quality : 0.0;
}

std::string cluster_stats_to_json(const ClusterRunStats& stats) {
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "{\"nodes\": %zu, \"total_quality\": %.6f, \"max_quality\": %.6f, "
      "\"normalized_quality\": %.6f, \"dynamic_energy_j\": %.3f, "
      "\"static_energy_j\": %.3f, \"wake_energy_j\": %.3f, "
      "\"core_wakes\": %zu, \"peak_node_power_w\": %.3f, "
      "\"max_cluster_power_w\": %.3f, \"end_time_ms\": %.3f, "
      "\"jobs_total\": %zu, \"jobs_satisfied\": %zu, \"jobs_partial\": %zu, "
      "\"jobs_zero\": %zu, \"jobs_discarded_rigid\": %zu, "
      "\"replans\": %zu, \"route_shed\": %zu, \"node_shed\": %zu, "
      "\"redistributed\": %zu, \"redistribute_shed\": %zu, "
      "\"broker_decisions\": %zu",
      stats.node_stats.size(), stats.total_quality, stats.max_quality,
      stats.normalized_quality, stats.dynamic_energy, stats.static_energy,
      stats.wake_energy, stats.core_wakes,
      stats.peak_node_power, stats.max_cluster_power, stats.end_time,
      stats.jobs_total, stats.jobs_satisfied, stats.jobs_partial,
      stats.jobs_zero, stats.jobs_discarded_rigid, stats.replans,
      stats.route_shed, stats.node_shed, stats.redistributed,
      stats.redistribute_shed, stats.broker_log.size());
  std::string out = buf;
  out += ", \"node_stats\": [";
  for (std::size_t i = 0; i < stats.node_stats.size(); ++i) {
    if (i > 0) out += ", ";
    out += stats_to_json(stats.node_stats[i]);
  }
  out += "], \"killed\": [";
  for (std::size_t i = 0; i < stats.killed.size(); ++i) {
    if (i > 0) out += ", ";
    out += stats.killed[i] ? "true" : "false";
  }
  out += "]}";
  return out;
}

}  // namespace qes::cluster
