// cluster_trough: cluster::run_cluster_lockstep_chaos over 4 nodes x 8
// cores with the overnight_trough power model (b = 2 W, a sleep state,
// race-to-idle, 2 s deadlines) and low-rate diurnal arrivals, P2C
// dispatch and a 20 ms broker. Its chaos schedule steps the global
// budget periodically and kills one node. It is the only workload that
// runs the C-state path (race-to-idle decision, residency accounting,
// wake charging), the static-draw broker and kill redistribution,
// through the RuntimeCore that qesd serves with — single-threaded and
// deterministic.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "cli/workload_source.hpp"
#include "cluster/lockstep.hpp"
#include "obs/registry.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kNodes = 4;
constexpr int kCoresPerNode = 8;
constexpr double kNodeBudgetW = 160.0;  // overnight_trough's H per node
// setup_s is the median of this many back-to-back set-ups, made before
// any repetition runs so that every one starts from the same heap (timed
// inside the repetitions, a set-up also depended on how the previous run
// left the heap), and scaled to the reference host speed.
constexpr int kSetups = 9;

struct Rep {
  bool warmup = false;     ///< checked, but not timed
  double run_s = 0.0;      ///< wall time of the run call
  double run_cpu_s = 0.0;  ///< this thread's CPU time in the run call
  double speed = 0.0;      ///< mean host_speed() before and after the run
  std::int64_t setup_start_ns = 0, run_start_ns = 0, run_end_ns = 0;
  std::size_t arrivals = 0;
  /// Without its per-decision logs (about 10 MB a repetition), which would
  /// otherwise pile up across repetitions and inflate peak_rss_mb.
  qes::cluster::ClusterRunStats stats;
  std::size_t broker_decisions = 0;
  std::size_t power_samples = 0;
  std::string power_violation;  ///< first sample above H(t), if any
  std::string digest;
  std::unique_ptr<qes::obs::Registry> registry;  // traced repetitions
};

qes::cli::WorkloadSourceSpec workload(const RunOptions& opts) {
  qes::cli::WorkloadSourceSpec w;
  w.regime = "diurnal";
  w.workload.arrival_rate = 80.0;
  w.workload.horizon_ms = opts.smoke ? 30'000.0 : 2'000'000.0;
  w.workload.deadline_ms = 2000.0;
  w.workload.seed = opts.seed;
  w.diurnal_amplitude = 0.6;
  w.diurnal_period_ms = w.workload.horizon_ms;
  return w;
}

std::vector<qes::cluster::ChaosEvent> chaos_schedule(double horizon_ms) {
  using Kind = qes::cluster::ChaosEvent::Kind;
  std::vector<qes::cluster::ChaosEvent> chaos;
  const double total = kNodeBudgetW * kNodes;
  // Budget steps every tenth of the day: H alternates between full and
  // 70 %, forcing a re-split and a replan on every node each time.
  for (int k = 1; k < 10; ++k) {
    chaos.push_back({horizon_ms * k / 10.0, Kind::BudgetStep, 0,
                     k % 2 == 1 ? 0.7 * total : total});
  }
  // Between the steps at 0.6 and 0.7 of the day, so the schedule stays
  // sorted by time.
  chaos.insert(chaos.begin() + 6, {horizon_ms * 0.65, Kind::Kill, 1, 0.0});
  return chaos;
}

/// What one repetition runs: the jobs, the cluster and its chaos schedule.
struct Inputs {
  std::vector<qes::Job> jobs;
  qes::cluster::LockstepClusterConfig cc;
  std::vector<qes::cluster::ChaosEvent> chaos;
};

Inputs set_up(const RunOptions& opts, qes::obs::Registry* registry) {
  Inputs in;
  const qes::cli::WorkloadSourceSpec w = workload(opts);
  in.jobs = qes::cli::make_jobs(w);
  qes::cluster::LockstepClusterConfig& cc = in.cc;
  cc.node.cores = kCoresPerNode;
  cc.node.power_budget = kNodeBudgetW;
  cc.node.power_model.a = 5.0;
  cc.node.power_model.beta = 2.0;
  cc.node.power_model.b = 2.0;
  cc.node.power_model.sleep_enabled = true;
  cc.node.power_model.sleep_power = 0.2;
  cc.node.power_model.wake_latency_ms = 1.0;
  cc.node.power_model.wake_energy_j = 0.05;
  cc.node.quantum_ms = 200.0;
  cc.node.counter_trigger = 8;
  cc.node.registry = registry;
  cc.nodes = kNodes;
  cc.total_budget = kNodeBudgetW * kNodes;
  cc.broker_period_ms = 20.0;
  cc.redispatch_deadline_ms = w.workload.deadline_ms;
  cc.dispatch = qes::cluster::DispatchPolicy::PowerOfTwo;
  cc.dispatch_seed = opts.seed;
  in.chaos = chaos_schedule(w.workload.horizon_ms);
  return in;
}

Rep run_once(const RunOptions& opts, bool traced) {
  Rep rep;
  if (traced) rep.registry = std::make_unique<qes::obs::Registry>();

  const std::int64_t t_setup = now_ns();
  Inputs in = set_up(opts, rep.registry.get());
  rep.arrivals = in.jobs.size();
  const double speed0 = host_speed();
  const double cpu_run = thread_cpu_s();
  const std::int64_t t_run = now_ns();
  rep.stats = qes::cluster::run_cluster_lockstep_chaos(
      in.cc, std::move(in.jobs), std::move(in.chaos));
  const std::int64_t t_end = now_ns();
  rep.run_cpu_s = thread_cpu_s() - cpu_run;
  rep.speed = 0.5 * (speed0 + host_speed());
  rep.setup_start_ns = t_setup;
  rep.run_start_ns = t_run;
  rep.run_end_ns = t_end;
  rep.run_s = static_cast<double>(t_end - t_run) * 1e-9;

  const qes::cluster::ClusterRunStats& s = rep.stats;
  Digest d;
  for (double v : {s.total_quality, s.max_quality, s.normalized_quality,
                   s.dynamic_energy, s.static_energy, s.wake_energy,
                   s.max_cluster_power, s.end_time}) {
    d.add(v);
  }
  for (std::size_t v :
       {s.jobs_total, s.jobs_satisfied, s.jobs_partial, s.jobs_zero,
        s.replans, s.core_wakes, s.route_shed, s.redistributed,
        s.redistribute_shed, s.broker_log.size()}) {
    d.add(static_cast<std::uint64_t>(v));
  }
  rep.digest = d.hex();

  rep.broker_decisions = s.broker_log.size();
  rep.power_samples = s.power_samples.size();
  for (const auto& ps : s.power_samples) {
    if (ps.power > ps.budget * (1.0 + 1e-9) + 1e-9) {
      rep.power_violation = format("cluster power %.9g W > H(t) = %.9g W at "
                                   "t = %.3f ms",
                                   ps.power, ps.budget, ps.t);
      break;
    }
  }
  rep.stats.broker_log.clear();
  rep.stats.broker_log.shrink_to_fit();
  rep.stats.power_samples.clear();
  rep.stats.power_samples.shrink_to_fit();
  return rep;
}

}  // namespace

Outcome run_cluster_trough(const RunOptions& opts) {
  Outcome out;
  (void)host_speed();  // its first call pays for page faults
  const double setup_speed0 = host_speed();
  std::vector<double> setup_s;
  for (int k = 0; k < kSetups; ++k) {
    const std::int64_t t_setup = now_ns();
    const Inputs in = set_up(opts, nullptr);
    setup_s.push_back(seconds_since(t_setup));
  }
  const double setup_speed = 0.5 * (setup_speed0 + host_speed());
  // The first repetition is a warm-up: checked, not timed.
  std::vector<Rep> reps;
  reps.push_back(run_once(opts, false));
  reps.back().warmup = true;
  const std::int64_t t0 = now_ns();
  const std::size_t min_reps = opts.trace ? 5 : 4;
  while (reps.size() < min_reps || seconds_since(t0) < opts.seconds) {
    reps.push_back(run_once(opts, opts.trace && reps.size() % 2 == 0));
    if (opts.smoke && reps.size() >= min_reps) break;
  }

  // Times of a repetition are read at kReferenceSpeed (see
  // perfbench/README.md, "Host noise on CPU time").
  std::vector<double> raw_us, plain_us, traced_us;
  std::string per_rep;
  for (Rep& r : reps) {
    const qes::cluster::ClusterRunStats& s = r.stats;
    if (opts.violate) r.arrivals += 1;
    out.check(r.arrivals ==
                  s.route_shed + s.redistribute_shed + s.jobs_total,
              format("arrivals %zu == sheds %zu + finalized %zu", r.arrivals,
                     s.route_shed + s.redistribute_shed, s.jobs_total));
    out.check(std::count(s.killed.begin(), s.killed.end(), true) == 1,
              "the chaos schedule killed exactly one node");
    out.check(r.power_samples > 0, "broker sampled cluster power");
    out.check(r.power_violation.empty(),
              "cluster power <= H(t) at every broker sample: " +
                  r.power_violation);
    out.check(r.digest == reps.front().digest,
              "every repetition reproduces the same simulated statistics");
    const double us = 1e6 * r.run_cpu_s / static_cast<double>(s.jobs_total);
    per_rep += format(" %.4g%s", us, r.warmup ? "w" : r.registry ? "t" : "");
    if (r.warmup) continue;
    const double to_reference = r.speed / kReferenceSpeed;
    if (r.registry) {
      traced_us.push_back(us * to_reference);
    } else {
      raw_us.push_back(us);
      plain_us.push_back(us * to_reference);
    }
  }
  const qes::cluster::ClusterRunStats& s = reps.front().stats;
  const std::size_t shed = s.route_shed + s.redistribute_shed;
  // The cluster keeps no per-job response times, only each node's; their
  // mean weighted by satisfied jobs is the exact cluster mean.
  double latency_sum_ms = 0.0;
  std::size_t satisfied = 0;
  for (const qes::RunStats& n : s.node_stats) {
    latency_sum_ms += n.mean_latency * static_cast<double>(n.jobs_satisfied);
    satisfied += n.jobs_satisfied;
  }
  out.check(satisfied > 0 && satisfied == s.jobs_satisfied,
            "node statistics sum to the cluster's satisfied jobs");
  out.attempted = reps.front().arrivals;
  out.failed = shed;
  out.note(format("cluster_trough: %zu repetitions, %zu arrivals, %zu shed, "
                  "%zu replans, %zu wakes, %zu redistributed each",
                  reps.size(), reps.front().arrivals, shed, s.replans,
                  s.core_wakes, s.redistributed));
  out.note("digest " + reps.front().digest);
  out.note("CPU us per job by repetition (w = warm-up, t = traced):" +
           per_rep);
  out.note(format("untraced repetitions (medians): %.4g CPU us per job, "
                  "%.4g at %.4g op/s",
                  median(raw_us), median(plain_us), kReferenceSpeed));
  out.note(format("set-ups (median of %zu): %.4g s at host speed %.4g op/s",
                  setup_s.size(), median(setup_s), setup_speed));

  if (!opts.trace) {
    out.add("setup_s", median(setup_s) * setup_speed / kReferenceSpeed, "s",
            setup_s.size());
    out.add("cpu_us_per_job", median(plain_us), "us", plain_us.size());
    out.add("latency_ms",
            latency_sum_ms / static_cast<double>(std::max<std::size_t>(
                                 satisfied, 1)),
            "ms", satisfied);
    out.add("norm_quality", s.normalized_quality, "ratio");
    out.add("quality_per_joule",
            s.total_quality /
                (s.dynamic_energy + s.static_energy + s.wake_energy),
            "1/J");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    return out;
  }

  const Rep* last = nullptr;
  for (const Rep& r : reps) {
    if (r.registry) last = &r;
  }
  const double policy_share = add_policy_metrics(
      out, *last->registry, "runtime", last->stats.replans, last->run_s);
  out.add("policy.replans", static_cast<double>(s.replans), "count");
  out.add("core.wakes", static_cast<double>(s.core_wakes), "count");
  out.add("cluster.broker_decisions",
          static_cast<double>(reps.front().broker_decisions), "count");
  out.add("cluster.redistributed", static_cast<double>(s.redistributed),
          "count");
  out.add("cluster.self_share", 1.0 - policy_share, "ratio");
  out.add("obs.trace_overhead", median(traced_us) / median(plain_us) - 1.0,
          "ratio");
  if (!opts.trace_path.empty()) {
    SpanLog spans(true);
    for (const Rep& r : reps) {
      const std::uint64_t rep_id = spans.new_id();
      spans.add(r.registry ? "cluster.rep_traced" : "cluster.rep", rep_id, 0,
                r.setup_start_ns, r.run_end_ns);
      spans.add("cluster.setup", spans.new_id(), rep_id, r.setup_start_ns,
                r.run_start_ns);
      spans.add("cluster.run_lockstep_chaos", spans.new_id(), rep_id,
                r.run_start_ns, r.run_end_ns);
    }
    out.check(spans.write(opts.trace_path),
              "spans written to " + opts.trace_path);
  }
  return out;
}

}  // namespace perfbench
