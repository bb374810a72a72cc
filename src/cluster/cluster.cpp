#include "cluster/cluster.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include "core/assert.hpp"
#include "policy/des_planner.hpp"

namespace qes::cluster {

Cluster::Cluster(ClusterConfig config)
    : cfg_(std::move(config)),
      // Each live node draws cores × b whatever its plans say.
      broker_(cfg_.total_budget,
              static_cast<std::size_t>(std::max(cfg_.nodes, 1)),
              static_cast<double>(cfg_.node.model.cores) *
                  cfg_.node.model.power_model.b),
      profiler_(&registry_, policy::kReplanPhaseMetric,
                policy::kReplanPhaseHelp, {{"plane", "cluster"}}),
      dispatcher_(static_cast<std::size_t>(std::max(cfg_.nodes, 1)),
                  cfg_.dispatch, cfg_.dispatch_seed) {
  QES_ASSERT(cfg_.nodes >= 1 && cfg_.total_budget > 0.0 &&
             cfg_.broker_period_wall_ms > 0.0);
  nodes_.resize(static_cast<std::size_t>(cfg_.nodes));
  killed_stats_.resize(nodes_.size());
  killed_.assign(nodes_.size(), false);
  int node_id = 0;
  for (Node& n : nodes_) {
    runtime::ServerConfig sc = cfg_.node;
    // Every node starts at the broker's equal share of H.
    sc.model.power_budget = broker_.budget(static_cast<std::size_t>(node_id));
    // Stamp the node index so the attribution families
    // (qes_energy_joules_total{class,node} etc.) separate per node.
    sc.model.node_id = node_id;
    if (cfg_.node_trace_capacity > 0 && sc.model.trace == nullptr) {
      traces_.push_back(
          std::make_unique<obs::TraceRing>(cfg_.node_trace_capacity));
      sc.model.trace = traces_.back().get();
    }
    if (cfg_.node_http_base_port >= 0) {
      sc.http_port = cfg_.node_http_base_port == 0
                         ? 0
                         : cfg_.node_http_base_port + node_id;
    }
    if (cfg_.node_listen_base_port >= 0) {
      sc.listen_port = cfg_.node_listen_base_port == 0
                           ? 0
                           : cfg_.node_listen_base_port + node_id;
    }
    n.server = std::make_unique<runtime::Server>(std::move(sc));
    ++node_id;
  }
}

Cluster::~Cluster() {
  if (started_ && !stopped_) (void)drain_and_stop();
}

void Cluster::start() {
  QES_ASSERT_MSG(!started_, "start() may be called once");
  started_ = true;
  for (Node& n : nodes_) n.server->start();
  if (cfg_.http_port >= 0) {
    // The aggregate endpoint serves ONLY the cluster registry
    // (qes_cluster_*): concatenating the node registries here would
    // repeat the qesd_* families and break the exposition format — each
    // node's qesd registry is scraped on its own listener instead.
    exporter_ = std::make_unique<obs::HttpExporter>(cfg_.http_port);
    exporter_->handle("/metrics", "text/plain; version=0.0.4",
                      [this] { return registry_.to_prometheus(); });
    exporter_->handle("/metrics.json", "application/json",
                      [this] { return registry_.to_json(); });
    exporter_->handle("/healthz", "application/json", [this] {
      std::string ports;
      for (std::size_t i = 0; i < nodes_.size(); ++i) {
        if (!ports.empty()) ports += ", ";
        ports += std::to_string(nodes_[i].server->http_port());
      }
      return "{\"status\": \"ok\", \"nodes\": " +
             std::to_string(nodes_.size()) +
             ", \"t_virtual_ms\": " + std::to_string(now()) +
             ", \"node_http_ports\": [" + ports + "]}\n";
    });
    exporter_->handle("/tracez", "application/x-ndjson", [this] {
      constexpr std::size_t kPerNodeCap = 64;
      std::string out;
      std::size_t shown = 0, buffered = 0, dropped = 0;
      for (std::size_t i = 0; i < traces_.size(); ++i) {
        buffered += traces_[i]->size();
        dropped += traces_[i]->dropped();
        for (const obs::TraceEvent& e : traces_[i]->tail(kPerNodeCap)) {
          out += "{\"node\": " + std::to_string(i) +
                 ", \"event\": " + obs::to_json(e) + "}\n";
          ++shown;
        }
      }
      // Same bounded-but-honest trailer as the node /tracez.
      out += "{\"tracez\": {\"shown\": " + std::to_string(shown) +
             ", \"buffered\": " + std::to_string(buffered) +
             ", \"dropped\": " + std::to_string(dropped) +
             ", \"truncated\": " +
             ((shown < buffered || dropped > 0) ? "true" : "false") + "}}\n";
      return out;
    });
    exporter_->start();
  }
  broker_thread_ = std::thread([this] { broker_loop(); });
}

int Cluster::http_port() const {
  return exporter_ ? exporter_->port() : -1;
}

obs::TraceRing* Cluster::node_trace(int node) const {
  QES_ASSERT(node >= 0 && node < cfg_.nodes);
  const std::size_t k = static_cast<std::size_t>(node);
  return k < traces_.size() ? traces_[k].get() : nullptr;
}

std::vector<double> Cluster::depths_locked() const {
  std::vector<double> d(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].state != NodeState::Live) {
      d[i] = std::numeric_limits<double>::infinity();
      continue;
    }
    // The routing signal the nodes already export: the admission
    // queue-depth gauge, refreshed by each node's trigger tick.
    const obs::Gauge* g = nodes_[i].server->registry().find_gauge(
        "qesd_admission_queue_depth");
    d[i] = g != nullptr ? g->value() : 0.0;
  }
  return d;
}

bool Cluster::submit(const runtime::Request& request) {
  int target = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    target = dispatcher_.route(depths_locked());
    if (target < 0) {
      route_shed_.fetch_add(1, std::memory_order_relaxed);
      registry_
          .counter("qes_cluster_route_shed_total",
                   "requests with no routable node")
          .inc();
      return false;
    }
  }
  // Push outside the cluster mutex: the node's own backpressure (and
  // shed accounting) applies. A node killed between route and push just
  // sheds the request at its closed admission queue.
  return nodes_[static_cast<std::size_t>(target)].server->submit(
      request, cfg_.submit_timeout);
}

void Cluster::drain_node(int node) {
  std::lock_guard<std::mutex> lock(mu_);
  QES_ASSERT(node >= 0 && node < cfg_.nodes);
  Node& n = nodes_[static_cast<std::size_t>(node)];
  if (n.state == NodeState::Live) n.state = NodeState::Draining;
}

void Cluster::kill_node(int node) {
  std::lock_guard<std::mutex> lock(mu_);
  QES_ASSERT(node >= 0 && node < cfg_.nodes);
  const std::size_t k = static_cast<std::size_t>(node);
  Node& victim = nodes_[k];
  if (victim.state == NodeState::Dead) return;
  victim.state = NodeState::Dead;
  runtime::Server::KillReport report = victim.server->kill();
  killed_[k] = true;
  killed_stats_[k] = report.stats;

  // Re-dispatch the orphans: abandoned jobs re-enter as fresh requests
  // with their remaining demand (the destination stamps a fresh
  // deadline at admission), never-admitted queued requests go verbatim.
  auto redispatch = [&](const runtime::Request& r) {
    const int j = dispatcher_.route(depths_locked());
    if (j < 0) {
      ++redistribute_shed_;
      registry_
          .counter("qes_cluster_redistribute_shed_total",
                   "kill-orphaned work with no surviving node")
          .inc();
      return;
    }
    ++redistributed_;
    registry_
        .counter("qes_cluster_redistributed_total",
                 "kill-orphaned work re-dispatched to a survivor")
        .inc();
    // A full destination queue sheds at the destination (its counter).
    (void)nodes_[static_cast<std::size_t>(j)].server->submit(
        r, cfg_.submit_timeout);
  };
  for (const runtime::AbandonedJob& ab : report.abandoned) {
    redispatch(runtime::Request{.demand = ab.remaining,
                                .partial_ok = ab.partial_ok,
                                .weight = ab.weight});
  }
  for (const runtime::Request& r : report.pending) redispatch(r);

  // The dead node's budget share is re-water-filled immediately — the
  // cluster reconverges within one broker period of the fault.
  broker_tick_locked();
}

void Cluster::broker_tick_locked() {
  auto timer = profiler_.phase("broker_tick");
  const std::size_t nn = nodes_.size();
  std::vector<Watts> demands(nn);
  std::size_t live = 0;
  Time t = 0.0;
  for (std::size_t i = 0; i < nn; ++i) {
    if (nodes_[i].state == NodeState::Dead) {
      demands[i] = -1.0;
      continue;
    }
    demands[i] = nodes_[i].server->power_request();
    t = std::max(t, nodes_[i].server->now());
    ++live;
  }
  if (!broker_.decide(demands)) return;
  const BrokerSplit& split = broker_.split();

  for (std::size_t i = 0; i < nn; ++i) {
    const obs::Labels label{{"node", std::to_string(i)}};
    registry_
        .gauge("qes_cluster_node_demand_watts",
               "budget-free power request reported by the node", label)
        .set(std::max(demands[i], 0.0));
    registry_
        .gauge("qes_cluster_node_budget_watts",
               "power budget the broker granted the node", label)
        .set(split.budgets[i]);
  }
  for (std::size_t i : broker_.changed()) {
    nodes_[i].server->set_power_budget(broker_.budget(i));
  }
  // Sample only after every node holds its new budget: Σ budgets == H
  // and each node plans within its own budget, so Σ planned <= H.
  Watts planned = 0.0;
  for (std::size_t i = 0; i < nn; ++i) {
    if (nodes_[i].state == NodeState::Dead) continue;
    planned += nodes_[i].server->snapshot().planned_power_w;
  }
  max_cluster_power_ = std::max(max_cluster_power_, planned);
  registry_
      .gauge("qes_cluster_planned_power_watts",
             "instantaneous planned power summed over live nodes")
      .set(planned);
  registry_.gauge("qes_cluster_live_nodes", "nodes accepting budget")
      .set(static_cast<double>(live));
  broker_log_.push_back({t, split.budgets});
}

void Cluster::broker_loop() {
  const auto period = std::chrono::duration<double, std::milli>(
      cfg_.broker_period_wall_ms);
  while (!stop_broker_.load(std::memory_order_acquire)) {
    {
      std::unique_lock<std::mutex> lock(broker_wake_mu_);
      broker_wake_cv_.wait_for(lock, period, [this] {
        return stop_broker_.load(std::memory_order_acquire);
      });
    }
    if (stop_broker_.load(std::memory_order_acquire)) break;
    std::lock_guard<std::mutex> lock(mu_);
    broker_tick_locked();
  }
}

ClusterRunStats Cluster::drain_and_stop() {
  QES_ASSERT_MSG(started_, "drain_and_stop() requires start()");
  if (stopped_) return final_;
  {
    std::lock_guard<std::mutex> lock(broker_wake_mu_);
    stop_broker_.store(true, std::memory_order_release);
  }
  broker_wake_cv_.notify_all();
  if (broker_thread_.joinable()) broker_thread_.join();

  ClusterRunStats out;
  out.node_stats.resize(nodes_.size());
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    out.node_stats[i] = killed_[i] ? killed_stats_[i]
                                   : nodes_[i].server->drain_and_stop();
    out.node_shed += nodes_[i].server->shed();
  }
  out.killed = killed_;
  out.route_shed = route_shed_.load(std::memory_order_relaxed);
  out.redistributed = redistributed_;
  out.redistribute_shed = redistribute_shed_;
  out.max_cluster_power = max_cluster_power_;
  out.broker_log = broker_log_;
  finalize_aggregates(out);
  stopped_ = true;
  final_ = out;
  // Stop the aggregate endpoint last: it stays scrapable while the
  // nodes drain (their own exporters stop as each node finishes).
  if (exporter_) exporter_->stop();
  return out;
}

Time Cluster::now() const {
  Time t = 0.0;
  for (const Node& n : nodes_) t = std::max(t, n.server->now());
  return t;
}

const runtime::Server& Cluster::node_server(int node) const {
  QES_ASSERT(node >= 0 && node < cfg_.nodes);
  return *nodes_[static_cast<std::size_t>(node)].server;
}

}  // namespace qes::cluster
