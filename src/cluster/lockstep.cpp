#include "cluster/lockstep.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/assert.hpp"

namespace qes::cluster {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

ClusterRunStats run_cluster_lockstep(const LockstepClusterConfig& config,
                                     std::vector<Job> jobs,
                                     std::vector<NodeKill> kills) {
  std::vector<ChaosEvent> chaos;
  chaos.reserve(kills.size());
  for (const NodeKill& k : kills) {
    chaos.push_back({k.t, ChaosEvent::Kind::Kill, k.node, 0.0});
  }
  return run_cluster_lockstep_chaos(config, std::move(jobs),
                                    std::move(chaos));
}

ClusterRunStats run_cluster_lockstep_chaos(const LockstepClusterConfig& config,
                                           std::vector<Job> jobs,
                                           std::vector<ChaosEvent> chaos) {
  QES_ASSERT(config.nodes >= 1 && config.total_budget > 0.0 &&
             config.broker_period_ms > 0.0 &&
             config.redispatch_deadline_ms > 0.0);
  const std::size_t nn = static_cast<std::size_t>(config.nodes);
  sort_by_release(jobs);
  QES_ASSERT_MSG(deadlines_agreeable(jobs),
                 "cluster replay requires agreeable deadlines");
  QES_ASSERT(std::is_sorted(
      chaos.begin(), chaos.end(),
      [](const ChaosEvent& a, const ChaosEvent& b) { return a.t < b.t; }));

  // Each live node draws cores × b whatever its plans say.
  BudgetBroker broker(
      config.total_budget, nn,
      static_cast<double>(config.node.cores) * config.node.power_model.b);
  // Every node starts at the broker's equal share of H (== H exactly for
  // N=1, matching a standalone run_lockstep).
  runtime::RuntimeConfig node_cfg = config.node;
  node_cfg.power_budget = broker.budget(0);
  std::vector<runtime::RuntimeCore> cores;
  cores.reserve(nn);
  for (std::size_t i = 0; i < nn; ++i) cores.emplace_back(node_cfg);

  std::vector<bool> dead(nn, false);
  std::vector<bool> drained(nn, false);
  Dispatcher dispatcher(nn, config.dispatch, config.dispatch_seed);

  ClusterRunStats out;
  out.node_stats.resize(nn);
  out.killed.assign(nn, false);

  // Routing signal: live jobs on the node (what the obs queue-depth
  // gauges report live); infinite depth marks a dead or drained node
  // unroutable. Refilled in place on every arrival.
  std::vector<double> depth(nn);
  auto depths = [&]() -> const std::vector<double>& {
    for (std::size_t i = 0; i < nn; ++i) {
      depth[i] = dead[i] || drained[i]
                     ? kInf
                     : static_cast<double>(cores[i].live_jobs());
    }
    return depth;
  };

  auto sample_cluster_power = [&](Time t) {
    Watts total = 0.0;
    for (std::size_t i = 0; i < nn; ++i) {
      if (!dead[i]) total += cores[i].planned_power_now();
    }
    out.max_cluster_power = std::max(out.max_cluster_power, total);
    out.power_samples.push_back({t, total, broker.total_budget()});
  };

  // One broker decision: re-water-fill H from the nodes' budget-free
  // power requests. Budget-only — never advances a node's clock. A node
  // whose budget changed replans immediately (mandatory on decrease so
  // installed plans never exceed the new bound). Drained nodes still get
  // budget: they keep executing their assigned work.
  std::vector<Watts> demands(nn);
  auto apply_broker = [&](Time t) {
    for (std::size_t i = 0; i < nn; ++i) {
      demands[i] = dead[i] ? -1.0 : cores[i].power_request();
    }
    if (!broker.decide(demands)) return;
    for (std::size_t i : broker.changed()) {
      cores[i].set_power_budget(broker.budget(i));
      cores[i].replan();
    }
    out.broker_log.push(t, broker.split().budgets);
    sample_cluster_power(t);
  };

  auto all_done = [&] {
    for (std::size_t i = 0; i < nn; ++i) {
      if (!dead[i] && !cores[i].all_finalized()) return false;
    }
    return true;
  };

  // A live node's own event menu — identical to run_lockstep's.
  auto node_event = [&](std::size_t i) {
    Time ev = kInf;
    if (node_cfg.quantum_ms > 0.0) ev = std::min(ev, cores[i].next_quantum());
    ev = std::min(ev, cores[i].earliest_live_deadline());
    ev = std::min(ev, cores[i].next_plan_event());
    return ev;
  };

  // Nodes an event advanced or handed work to; they check their
  // triggers once the event is fully applied.
  std::vector<bool> touched(nn, false);
  auto replan_touched = [&] {
    for (std::size_t i = 0; i < nn; ++i) {
      if (touched[i] && cores[i].check_triggers()) cores[i].replan();
    }
  };

  const std::size_t n = jobs.size();
  const Time final_deadline = jobs.empty() ? 0.0 : jobs.back().deadline;
  std::size_t next = 0;
  std::size_t chaos_idx = 0;
  Time next_broker = config.broker_period_ms;
  apply_broker(0.0);  // log the initial equal split

  while (next < n || !all_done()) {
    Time t_nodes = kInf;
    if (next < n) t_nodes = std::min(t_nodes, jobs[next].release);
    for (std::size_t i = 0; i < nn; ++i) {
      if (!dead[i]) t_nodes = std::min(t_nodes, node_event(i));
    }
    const Time t_chaos = chaos_idx < chaos.size() ? chaos[chaos_idx].t : kInf;
    const Time t = std::min({t_nodes, t_chaos, next_broker});
    QES_ASSERT_MSG(std::isfinite(t), "cluster event loop stalled");

    if (t_chaos <= t + kTimeEps) {
      const ChaosEvent ev = chaos[chaos_idx];
      ++chaos_idx;

      if (ev.kind == ChaosEvent::Kind::BudgetStep) {
        broker.set_total_budget(ev.budget);
        // Re-split immediately: no node may keep planning against the
        // old H for even one event.
        apply_broker(ev.t);
        continue;
      }

      QES_ASSERT(ev.node >= 0 && static_cast<std::size_t>(ev.node) < nn);
      const std::size_t ks = static_cast<std::size_t>(ev.node);

      if (ev.kind == ChaosEvent::Kind::Drain) {
        if (!dead[ks]) drained[ks] = true;
        continue;
      }
      if (ev.kind == ChaosEvent::Kind::Revive) {
        if (!dead[ks]) drained[ks] = false;
        continue;
      }

      // Kill.
      if (dead[ks]) continue;
      runtime::RuntimeCore& victim = cores[ks];
      victim.advance(std::max(ev.t, victim.now()));
      const std::vector<runtime::AbandonedJob> orphans =
          victim.abandon_unfinalized();
      out.node_stats[ks] = victim.finish(victim.now());
      dead[ks] = true;
      out.killed[ks] = true;
      // Orphans become fresh admissions on the survivors: release now,
      // deadline pushed out by the redispatch window (bumped up to the
      // destination's last deadline to stay agreeable).
      touched.assign(nn, false);
      for (const runtime::AbandonedJob& ab : orphans) {
        const int j = dispatcher.route(depths());
        if (j < 0) {
          ++out.redistribute_shed;
          continue;
        }
        ++out.redistributed;
        runtime::RuntimeCore& dst = cores[static_cast<std::size_t>(j)];
        dst.advance(std::max(ev.t, dst.now()));
        Job nj;
        nj.id = dst.admitted() + 1;
        nj.release = dst.now();
        nj.deadline =
            std::max(ev.t + config.redispatch_deadline_ms, dst.horizon());
        nj.demand = ab.remaining;
        nj.partial_ok = ab.partial_ok;
        nj.weight = ab.weight;
        dst.submit(nj);
        touched[static_cast<std::size_t>(j)] = true;
      }
      replan_touched();
      // The dead node's budget is redistributed immediately — the
      // broker reconverges within one period by construction.
      apply_broker(ev.t);
      continue;
    }

    if (next_broker <= t + kTimeEps) {
      apply_broker(next_broker);
      next_broker += config.broker_period_ms;
      continue;
    }

    // Normal node event(s) and/or arrivals at t — each involved node
    // performs exactly run_lockstep's advance/submit/trigger sequence.
    touched.assign(nn, false);
    for (std::size_t i = 0; i < nn; ++i) {
      if (!dead[i] && node_event(i) <= t + kTimeEps) {
        cores[i].advance(std::max(t, cores[i].now()));
        touched[i] = true;
      }
    }
    while (next < n && jobs[next].release <= t + kTimeEps) {
      const int j = dispatcher.route(depths());
      if (j < 0) {
        ++out.route_shed;
        ++next;
        continue;
      }
      runtime::RuntimeCore& dst = cores[static_cast<std::size_t>(j)];
      dst.advance(std::max(t, dst.now()));
      touched[static_cast<std::size_t>(j)] = true;
      Job nj = jobs[next];
      nj.id = dst.admitted() + 1;
      dst.submit(nj);
      ++next;
    }
    replan_touched();
  }

  for (std::size_t i = 0; i < nn; ++i) {
    if (dead[i]) continue;
    out.node_stats[i] =
        cores[i].finish(std::max(final_deadline, cores[i].horizon()));
  }

  finalize_aggregates(out);
  return out;
}

}  // namespace qes::cluster
