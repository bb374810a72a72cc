// Live sharded cluster: N in-process runtime::Servers behind one front
// end, a broker thread re-water-filling the global budget H, and node
// lifecycle (start / drain / kill) with fault injection.
//
// Thread/ownership model (on top of each node's own, see
// src/runtime/README.md):
//
//   producers (any)  submit(): route under the cluster mutex (the
//                    Dispatcher consumes the nodes' queue-depth gauges),
//                    then push into the chosen node's admission queue —
//                    the node's own backpressure applies unchanged
//   broker (1)       every period: read each live node's budget-free
//                    power request, water-fill H across them
//                    (BudgetBroker::decide), push the changed budgets
//                    into the nodes (Server::set_power_budget replans
//                    under the node's model lock), export per-node
//                    gauges, and log the decision
//   lifecycle        drain_node() marks a node unroutable (it keeps its
//                    budget share and finishes its queue); kill_node()
//                    hard-stops it, re-dispatches its orphaned work to
//                    the survivors, and immediately re-water-fills H —
//                    so the budget reconverges within one broker period
//
// The cluster mutex serializes routing, lifecycle, and broker ticks;
// the per-node hot paths (admission, pacing workers) never touch it.
// Σ live node budgets == H after every broker decision, and each node's
// RuntimeCore asserts its instantaneous power against its own budget at
// every advance — together that bounds total cluster power by H.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "cluster/budget_broker.hpp"
#include "cluster/dispatch.hpp"
#include "cluster/stats.hpp"
#include "obs/http_exporter.hpp"
#include "obs/phase_profiler.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "runtime/server.hpp"

namespace qes::cluster {

struct ClusterConfig {
  /// Per-node server configuration; model.power_budget is overridden by
  /// the broker (nodes start at an equal share of total_budget).
  runtime::ServerConfig node;
  int nodes = 2;
  /// Global power budget H (watts), water-filled across the nodes.
  Watts total_budget = 640.0;
  /// Broker cadence (wall ms).
  double broker_period_wall_ms = 20.0;
  DispatchPolicy dispatch = DispatchPolicy::CRR;
  std::uint64_t dispatch_seed = 1;
  /// Admission-push timeout applied per routed request.
  std::chrono::milliseconds submit_timeout{5};
  /// Cluster-aggregate scrape endpoint (serves the qes_cluster registry):
  /// -1 disables, 0 binds an ephemeral port, else that port.
  int http_port = -1;
  /// Per-node scrape endpoints (each node's own qesd registry): -1
  /// disables, 0 gives every node an ephemeral port, else node i binds
  /// base + i. Read ports back via node_server(i).http_port().
  int node_http_base_port = -1;
  /// Per-node wire ingress (src/net/): -1 disables, 0 gives every node
  /// an ephemeral listener, else node i binds base + i. Read ports back
  /// via node_server(i).listen_port(). Clients address one node's
  /// request plane directly; cross-node balancing stays with the
  /// dispatcher (in-process submit()).
  int node_listen_base_port = -1;
  /// When > 0 and node.model.trace is unset, the cluster owns one
  /// TraceRing of this capacity per node (per-node job ids are dense
  /// 1..n, so nodes must not share a ring); see node_trace().
  std::size_t node_trace_capacity = 0;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Starts every node server and the broker thread.
  void start();

  /// Routes the request to a node and pushes it into that node's
  /// admission queue. Returns false when no node is routable (counted
  /// as route_shed) or the node's queue stayed full (the node counts it
  /// as shed). Safe from any number of producer threads.
  bool submit(const runtime::Request& request);

  /// Marks the node unroutable; it keeps serving its queue and is
  /// collected normally by drain_and_stop().
  void drain_node(int node);

  /// Fault injection: hard-stops the node, re-dispatches its orphaned
  /// jobs and queued requests to the surviving nodes, and immediately
  /// re-water-fills H across the survivors.
  void kill_node(int node);

  /// Stops the broker, drains every surviving node, and returns the
  /// cluster statistics. Idempotent.
  ClusterRunStats drain_and_stop();

  [[nodiscard]] int nodes() const { return cfg_.nodes; }
  [[nodiscard]] std::size_t route_shed() const { return route_shed_.load(); }

  /// Cluster virtual time: max over the nodes' clocks. Lock-free (the
  /// node set is fixed at construction and Server::now is thread-safe).
  [[nodiscard]] Time now() const;

  /// The cluster-level registry ("qes_cluster" prefix): per-node budget
  /// and demand gauges, routing/redistribution counters, planned power.
  [[nodiscard]] const obs::Registry& registry() const { return registry_; }
  [[nodiscard]] obs::Registry& registry() { return registry_; }

  /// Per-node server access (e.g. each node's own "qesd" registry).
  [[nodiscard]] const runtime::Server& node_server(int node) const;

  /// The cluster-aggregate scrape port, or -1 when disabled. Valid
  /// after start(). (Per-node ports: node_server(i).http_port().)
  [[nodiscard]] int http_port() const;

  /// The cluster-owned trace ring of one node (nullptr unless
  /// node_trace_capacity > 0). Spans assembled from it must be tagged
  /// with the node id — see obs::assemble_spans.
  [[nodiscard]] obs::TraceRing* node_trace(int node) const;

 private:
  enum class NodeState { Live, Draining, Dead };
  struct Node {
    std::unique_ptr<runtime::Server> server;
    NodeState state = NodeState::Live;
  };

  void broker_loop();
  /// Requires mu_. One broker decision over the current live set.
  void broker_tick_locked();
  /// Requires mu_. Queue depths from the nodes' obs gauges (+inf for
  /// unroutable nodes).
  [[nodiscard]] std::vector<double> depths_locked() const;

  ClusterConfig cfg_;
  BudgetBroker broker_;

  obs::Registry registry_;
  obs::PhaseProfiler profiler_;
  // One ring per node (declared before nodes_: each node's RuntimeConfig
  // points at its ring). Empty unless node_trace_capacity > 0.
  std::vector<std::unique_ptr<obs::TraceRing>> traces_;

  mutable std::mutex mu_;  // nodes' lifecycle state, dispatcher, broker log
  std::vector<Node> nodes_;
  Dispatcher dispatcher_;
  std::vector<RunStats> killed_stats_;
  std::vector<bool> killed_;
  std::vector<ClusterRunStats::BrokerDecision> broker_log_;
  Watts max_cluster_power_ = 0.0;
  std::size_t redistributed_ = 0;
  std::size_t redistribute_shed_ = 0;

  ClusterRunStats final_;  // cached by drain_and_stop()

  std::atomic<std::size_t> route_shed_{0};
  std::unique_ptr<obs::HttpExporter> exporter_;  // cluster-aggregate endpoint
  std::atomic<bool> stop_broker_{false};
  std::mutex broker_wake_mu_;
  std::condition_variable broker_wake_cv_;
  std::thread broker_thread_;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace qes::cluster
