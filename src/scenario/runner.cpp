#include "scenario/runner.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "cluster/dispatch.hpp"
#include "core/assert.hpp"
#include "multicore/des_scheduler.hpp"
#include "sched/quality_opt.hpp"
#include "vod/session.hpp"
#include "vod/video.hpp"

namespace qes::scenario {

namespace {

double wall_seconds_since(
    const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

DesOptions policy_options(const ScenarioSpec& spec) {
  DesOptions d;
  if (spec.policy == "sdvfs") {
    d.arch = Architecture::SDVFS;
  } else if (spec.policy == "nodvfs") {
    d.arch = Architecture::NoDVFS;
  } else {
    d.arch = Architecture::CDVFS;
  }
  d.race_to_idle = spec.race_to_idle;
  return d;
}

EngineConfig engine_config(const ScenarioSpec& spec,
                           const QualityFunction& quality) {
  EngineConfig cfg;
  cfg.cores = spec.cores;
  cfg.power_budget = spec.power_budget;
  cfg.power_model = spec.power_model;
  cfg.quality = quality;
  cfg.quantum_ms = spec.quantum_ms;
  cfg.counter_trigger = spec.counter_trigger;
  cfg.idle_trigger = spec.idle_trigger;
  cfg.max_core_speed = spec.max_core_speed;
  cfg.record_execution = spec.record;
  cfg.record_replan_times = spec.record;
  cfg.budget_steps = spec.budget_steps;
  return cfg;
}

/// QE-OPT quality bound at the aggregate speed the budget supports:
/// with convex dynamic power, m cores under budget H jointly run at
/// most m * speed_for_power(H / m) work-units per unit time, and one
/// migratory core at that speed relaxes the partitioned problem — so
/// Quality-OPT's total at that speed upper-bounds any online multicore
/// schedule. H under budget steps is bounded by the largest H in force.
/// The bound reads only QE-OPT's volumes, which are Quality-OPT's, so
/// QE-OPT's energy step (YDS) is not run.
double qe_opt_bound(const std::vector<Job>& jobs, const EngineConfig& cfg,
                    int total_cores) {
  Watts h = cfg.power_budget;
  for (const EngineBudgetStep& s : cfg.budget_steps) {
    h = std::max(h, s.budget);
  }
  const double m = static_cast<double>(total_cores);
  const Speed aggregate = m * cfg.power_model.speed_for_dynamic_power(h / m);
  const auto opt = quality_opt_schedule(AgreeableJobSet(jobs), aggregate);
  return total_quality(opt.volumes, cfg.quality);
}

void assert_engine_invariants(const RunStats& s, std::size_t arrived,
                              const EngineConfig& cfg) {
  QES_ASSERT_MSG(s.jobs_total == arrived,
                 "scenario invariant: every arrival must be finalized");
  QES_ASSERT_MSG(
      s.jobs_satisfied + s.jobs_partial + s.jobs_zero == s.jobs_total,
      "scenario invariant: job outcomes must partition the arrivals");
  Watts h_max = cfg.power_budget;
  for (const EngineBudgetStep& st : cfg.budget_steps) {
    h_max = std::max(h_max, st.budget);
  }
  QES_ASSERT_MSG(s.peak_power <= h_max * (1.0 + 1e-9) + 1e-9,
                 "scenario invariant: peak power must respect the budget");
}

ScenarioOutcome run_engine_cell(const ScenarioSpec& spec,
                                std::vector<Job> jobs,
                                const QualityFunction& quality,
                                ScenarioOutcome out) {
  const EngineConfig cfg = engine_config(spec, quality);
  const std::size_t arrived = jobs.size();
  double opt_q = -1.0;
  if (spec.compare_opt) {
    opt_q = qe_opt_bound(jobs, cfg, spec.cores);
  }

  const auto t0 = std::chrono::steady_clock::now();
  Engine engine(cfg, std::move(jobs), make_des_policy(policy_options(spec)));
  const RunResult result = engine.run();
  out.run_wall_s = wall_seconds_since(t0);
  const RunStats& s = result.stats;

  assert_engine_invariants(s, arrived, cfg);
  if (spec.compare_opt) {
    QES_ASSERT_MSG(s.total_quality <= opt_q + 1e-6,
                   "scenario invariant: online quality must not beat the "
                   "QE-OPT offline bound");
  }

  out.jobs = arrived;
  out.satisfied = s.jobs_satisfied;
  out.quality = s.total_quality;
  out.norm_quality = s.normalized_quality;
  out.energy = s.total_energy();
  out.peak_power = s.peak_power;
  out.replans = s.replans;
  out.events = engine.events_processed();
  out.opt_quality = opt_q;
  return out;
}

/// Streaming sim cell: jobs are pulled from the workload stream one
/// arrival ahead of simulated time and their state is released chunk by
/// chunk as the live window moves past it, so the cell's RSS is bounded
/// by the live window instead of the job count (the 10M-job cells). The
/// statistics are bitwise identical to the vector path
/// (tests/sim_engine_stream_test.cpp); the arrived-count invariant is
/// folded into jobs_total, which counts exactly the jobs the stream
/// yielded and the engine finalized.
ScenarioOutcome run_streaming_engine_cell(const ScenarioSpec& spec,
                                          std::unique_ptr<JobStream> stream,
                                          const QualityFunction& quality,
                                          ScenarioOutcome out) {
  EngineConfig cfg = engine_config(spec, quality);
  cfg.record_job_states = false;

  const auto t0 = std::chrono::steady_clock::now();
  Engine engine(cfg, std::move(stream),
                make_des_policy(policy_options(spec)));
  const RunResult result = engine.run();
  out.run_wall_s = wall_seconds_since(t0);
  const RunStats& s = result.stats;

  assert_engine_invariants(s, s.jobs_total, cfg);

  out.jobs = s.jobs_total;
  out.satisfied = s.jobs_satisfied;
  out.quality = s.total_quality;
  out.norm_quality = s.normalized_quality;
  out.energy = s.total_energy();
  out.peak_power = s.peak_power;
  out.replans = s.replans;
  out.events = engine.events_processed();
  out.opt_quality = -1.0;
  return out;
}

ScenarioOutcome run_cluster_cell(const ScenarioSpec& spec,
                                 std::vector<Job> jobs,
                                 ScenarioOutcome out) {
  cluster::LockstepClusterConfig cc;
  cc.node.cores = spec.cores;
  cc.node.power_budget = spec.power_budget;
  cc.node.power_model = spec.power_model;
  cc.node.quality = QualityFunction::exponential(spec.quality_c);
  cc.node.quantum_ms = spec.quantum_ms;
  cc.node.counter_trigger = spec.counter_trigger;
  cc.node.idle_trigger = spec.idle_trigger;
  cc.node.max_core_speed = spec.max_core_speed;
  cc.nodes = spec.nodes;
  cc.total_budget = spec.total_budget > 0.0
                        ? spec.total_budget
                        : spec.power_budget * static_cast<double>(spec.nodes);
  cc.broker_period_ms = spec.broker_period_ms;
  cc.redispatch_deadline_ms = spec.workload.workload.deadline_ms;
  cc.dispatch = *cluster::parse_dispatch_policy(spec.dispatch);
  cc.dispatch_seed = spec.workload.workload.seed;

  const std::size_t arrived = jobs.size();
  double opt_q = -1.0;
  if (spec.compare_opt) {
    // The bound must see the cell's own power model and every H a chaos
    // budget op puts in force, or it can fall below what the nodes run.
    EngineConfig probe;
    probe.power_budget = cc.total_budget;
    probe.power_model = spec.power_model;
    probe.quality = cc.node.quality;
    for (const cluster::ChaosEvent& ev : spec.chaos) {
      if (ev.kind == cluster::ChaosEvent::Kind::BudgetStep) {
        probe.budget_steps.push_back({ev.t, ev.budget});
      }
    }
    opt_q = qe_opt_bound(jobs, probe, spec.nodes * spec.cores);
  }

  const auto t0 = std::chrono::steady_clock::now();
  const cluster::ClusterRunStats s =
      cluster::run_cluster_lockstep_chaos(cc, std::move(jobs), spec.chaos);
  out.run_wall_s = wall_seconds_since(t0);

  // Conservation: every arrival is finalized by exactly one node or
  // counted shed. A killed node's statistics hold only the jobs it
  // FINALIZED before dying; each abandoned job is either re-admitted to
  // exactly one survivor (landing in that node's jobs_total) or counted
  // in redistribute_shed — so redistribution moves jobs without ever
  // double-counting them.
  QES_ASSERT_MSG(
      arrived == s.route_shed + s.redistribute_shed + s.jobs_total,
      "scenario invariant: cluster job conservation must hold exactly");
  // Σ planned power <= H(t) at every broker tick (H varies under budget
  // chaos; each node also asserts its own slice internally).
  for (const cluster::ClusterRunStats::PowerSample& ps : s.power_samples) {
    QES_ASSERT_MSG(ps.power <= ps.budget * (1.0 + 1e-9) + 1e-9,
                   "scenario invariant: cluster power must respect H at "
                   "every broker tick");
  }
  if (spec.compare_opt) {
    QES_ASSERT_MSG(s.total_quality <= opt_q + 1e-6,
                   "scenario invariant: online quality must not beat the "
                   "QE-OPT offline bound");
  }

  out.jobs = arrived;
  out.shed = s.route_shed + s.redistribute_shed;
  out.satisfied = s.jobs_satisfied;
  out.quality = s.total_quality;
  out.norm_quality = s.normalized_quality;
  out.energy = s.dynamic_energy + s.static_energy + s.wake_energy;
  out.peak_power = s.max_cluster_power;
  out.replans = s.replans;
  out.opt_quality = opt_q;
  return out;
}

}  // namespace

std::string ScenarioOutcome::json_row() const {
  char buf[768];
  std::snprintf(
      buf, sizeof buf,
      "{\"name\": \"%s\", \"substrate\": \"%s\", \"regime\": \"%s\", "
      "\"policy\": \"%s\", \"jobs\": %zu, \"shed\": %zu, "
      "\"satisfied\": %zu, \"quality\": %.6f, \"norm_quality\": %.6f, "
      "\"energy_j\": %.6e, \"peak_power_w\": %.3f, \"replans\": %zu, "
      "\"events\": %llu, \"opt_quality\": %.6f, \"gen_wall_s\": %.3f, "
      "\"run_wall_s\": %.3f, \"events_per_sec\": %.0f, "
      "\"peak_rss_mb\": %.1f, \"invariants\": \"pass\"}",
      name.c_str(), substrate.c_str(), regime.c_str(), policy.c_str(), jobs,
      shed, satisfied, quality, norm_quality, energy, peak_power, replans,
      static_cast<unsigned long long>(events), opt_quality, gen_wall_s,
      run_wall_s,
      run_wall_s > 0.0 ? static_cast<double>(events) / run_wall_s : 0.0,
      peak_rss_mb);
  return buf;
}

ScenarioOutcome run_scenario(const ScenarioSpec& spec) {
  ScenarioOutcome out;
  out.name = spec.name;
  out.substrate = spec.substrate;
  out.regime = spec.workload.regime;
  out.policy = spec.policy;

  const auto g0 = std::chrono::steady_clock::now();
  if (spec.substrate == "vod") {
    // Streaming sessions: chunk requests under the layered video
    // model's concave envelope quality.
    vod::LayeredVideoModel model;
    vod::SessionWorkloadConfig sc;
    sc.session_rate = spec.workload.workload.arrival_rate;
    sc.mean_chunks = spec.vod_mean_chunks;
    sc.chunk_period_ms = spec.vod_chunk_period_ms;
    sc.deadline_ms = spec.workload.workload.deadline_ms;
    sc.horizon_ms = spec.workload.workload.horizon_ms;
    sc.seed = spec.workload.workload.seed;
    vod::SessionWorkload wl = vod::generate_sessions(model, sc);
    out.gen_wall_s = wall_seconds_since(g0);
    out.regime = "sessions";
    out = run_engine_cell(spec, std::move(wl.jobs),
                          model.envelope_function(), std::move(out));
  } else if (spec.substrate == "sim" && spec.workload.regime != "trace" &&
             !spec.compare_opt && !spec.record) {
    // Stream whenever nothing needs the materialized job vector: the
    // QE-OPT bound and the record dump are the only consumers, and
    // trace replay is file-backed. Generation cost folds into
    // run_wall_s (the stream samples lazily during the run).
    std::unique_ptr<JobStream> stream = cli::make_job_stream(spec.workload);
    out.gen_wall_s = wall_seconds_since(g0);
    out = run_streaming_engine_cell(spec, std::move(stream),
                                    QualityFunction::exponential(spec.quality_c),
                                    std::move(out));
  } else {
    std::vector<Job> jobs = cli::make_jobs(spec.workload);
    out.gen_wall_s = wall_seconds_since(g0);
    if (spec.substrate == "cluster") {
      out = run_cluster_cell(spec, std::move(jobs), std::move(out));
    } else {
      out = run_engine_cell(spec, std::move(jobs),
                            QualityFunction::exponential(spec.quality_c),
                            std::move(out));
    }
  }
  out.peak_rss_mb = peak_rss_mb();
  return out;
}

}  // namespace qes::scenario
