// sim_diurnal: the shipped diurnal_10m scenario cell (64 cores,
// H = 1280 W, quantum-only triggers, streaming engine, b = 0) with its
// day compressed so that one run call takes seconds. It is the only
// workload that runs sim::Engine, and ROADMAP item 2's target.
//
// Each repetition sets up (spec -> stream -> engine) and runs the cell
// once; repetitions continue until the time budget is spent and the
// run reports medians. A traced run alternates untraced and traced
// repetitions; the traced ones wrap the job stream and the scheduling
// policy in timing decorators and attach a registry for the planner's
// phase histograms.
//
// The streaming engine makes its jobs lazily, so one set-up takes about
// 15 µs. setup_s therefore times blocks of back-to-back set-ups before
// the first repetition, and reports the median block per set-up.
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cli/workload_source.hpp"
#include "multicore/des_scheduler.hpp"
#include "obs/registry.hpp"
#include "scenario/spec.hpp"
#include "sim/engine.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

// diurnal_10m.json with period and horizon divided by kCompression: the
// same trough-to-overloaded-peak day, 1/kCompression of its jobs.
constexpr double kDayMs = 21'600'000.0;
constexpr double kCompression = 16.0;
constexpr double kSmokeCompression = 200.0;

std::string spec_text(std::uint64_t seed, double day_ms) {
  return format(R"({
  "name": "diurnal_10m_compressed", "substrate": "sim", "policy": "des",
  "workload": {"regime": "diurnal", "rate": 480, "amplitude": 0.6,
               "period_ms": %.1f, "horizon_ms": %.1f, "deadline_ms": 150,
               "seed": %llu},
  "engine": {"cores": 64, "power_budget": 1280, "quantum_ms": 100,
             "counter_trigger": 0, "idle_trigger": false}
})",
                day_ms, day_ms, static_cast<unsigned long long>(seed));
}

/// Counts every pull; a traced run also times each one as a span.
class ObservedStream final : public qes::JobStream {
 public:
  ObservedStream(std::unique_ptr<qes::JobStream> inner, SpanLog* spans,
                 std::uint64_t parent)
      : inner_(std::move(inner)), spans_(spans), parent_(parent) {}

  std::optional<qes::Job> next() override {
    if (spans_ == nullptr) {
      std::optional<qes::Job> j = inner_->next();
      pulled += j.has_value() ? 1 : 0;
      return j;
    }
    const std::int64_t t0 = now_ns();
    std::optional<qes::Job> j = inner_->next();
    const std::int64_t t1 = now_ns();
    pull_ns += t1 - t0;
    pulled += j.has_value() ? 1 : 0;
    spans_->add("workload.pull", spans_->new_id(), parent_, t0, t1);
    return j;
  }

  std::uint64_t pulled = 0;
  std::int64_t pull_ns = 0;

 private:
  std::unique_ptr<qes::JobStream> inner_;
  SpanLog* spans_;
  std::uint64_t parent_;
};

/// Times every SchedulingPolicy::replan call as an exact sample; a
/// traced run also logs each one as a span.
class TimedPolicy final : public qes::SchedulingPolicy {
 public:
  TimedPolicy(std::unique_ptr<qes::SchedulingPolicy> inner, SpanLog* spans,
              std::uint64_t parent)
      : inner_(std::move(inner)), spans_(spans), parent_(parent) {}

  void replan(qes::Engine& engine) override {
    const std::int64_t t0 = now_ns();
    inner_->replan(engine);
    const std::int64_t t1 = now_ns();
    replan_ns += t1 - t0;
    samples_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    if (spans_ != nullptr) {
      spans_->add("multicore.replan", spans_->new_id(), parent_, t0, t1);
    }
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

  std::int64_t replan_ns = 0;
  std::vector<double> samples_us;

 private:
  std::unique_ptr<qes::SchedulingPolicy> inner_;
  SpanLog* spans_;
  std::uint64_t parent_;
};

// setup_s: the median of kSetupBlocks blocks of kSetupsPerBlock set-ups,
// each block a few ms long, scaled to the reference host speed.
constexpr int kSetupBlocks = 9;
constexpr int kSetupsPerBlock = 100;

/// A set-up engine and the decorators around its stream and policy.
struct Setup {
  std::unique_ptr<qes::Engine> engine;
  ObservedStream* stream = nullptr;
  TimedPolicy* timed = nullptr;
};

Setup set_up(const RunOptions& opts, qes::obs::Registry* registry,
             SpanLog* spans, std::uint64_t parent) {
  const double day_ms =
      kDayMs / (opts.smoke ? kSmokeCompression : kCompression);
  const qes::scenario::ScenarioSpec spec =
      qes::scenario::parse_scenario_text(spec_text(opts.seed, day_ms));
  Setup su;
  auto stream = std::make_unique<ObservedStream>(
      qes::cli::make_job_stream(spec.workload), spans, parent);
  su.stream = stream.get();
  qes::EngineConfig cfg;
  cfg.cores = spec.cores;
  cfg.power_budget = spec.power_budget;
  cfg.power_model = spec.power_model;
  cfg.quality = qes::QualityFunction::exponential(spec.quality_c);
  cfg.quantum_ms = spec.quantum_ms;
  cfg.counter_trigger = spec.counter_trigger;
  cfg.idle_trigger = spec.idle_trigger;
  cfg.max_core_speed = spec.max_core_speed;
  cfg.record_execution = false;
  cfg.record_replan_times = false;
  cfg.record_job_states = false;
  cfg.registry = registry;
  qes::DesOptions des;
  des.race_to_idle = spec.race_to_idle;
  auto policy = std::make_unique<TimedPolicy>(qes::make_des_policy(des),
                                              spans, parent);
  su.timed = policy.get();
  su.engine = std::make_unique<qes::Engine>(cfg, std::move(stream),
                                            std::move(policy));
  return su;
}

struct Rep {
  bool warmup = false;     ///< checked, but not timed
  double run_s = 0.0;      ///< wall time of Engine::run
  double run_cpu_s = 0.0;  ///< this thread's CPU time in Engine::run
  double speed = 0.0;      ///< mean host_speed() before and after the run
  qes::RunStats stats;
  std::uint64_t pulled = 0;
  std::uint64_t events = 0;
  std::string digest;
  std::int64_t replan_ns = 0;
  std::vector<double> replan_us;  ///< every replan of the run call
  // Traced repetitions only.
  std::int64_t pull_ns = 0;
  std::unique_ptr<qes::obs::Registry> registry;
  std::unique_ptr<SpanLog> spans;
};

Rep run_once(const RunOptions& opts, bool traced) {
  Rep rep;
  if (traced) {
    rep.registry = std::make_unique<qes::obs::Registry>();
    rep.spans = std::make_unique<SpanLog>(true);
  }
  const std::uint64_t run_span = traced ? rep.spans->new_id() : 0;
  Setup su = set_up(opts, rep.registry.get(), rep.spans.get(), run_span);

  const double speed0 = host_speed();
  const double cpu_run = thread_cpu_s();
  const std::int64_t t_run = now_ns();
  qes::RunResult result = su.engine->run();
  const std::int64_t t_end = now_ns();
  rep.run_cpu_s = thread_cpu_s() - cpu_run;
  rep.speed = 0.5 * (speed0 + host_speed());
  rep.run_s = static_cast<double>(t_end - t_run) * 1e-9;
  rep.stats = result.stats;
  rep.pulled = su.stream->pulled;
  rep.events = su.engine->events_processed();
  rep.replan_ns = su.timed->replan_ns;
  rep.replan_us = std::move(su.timed->samples_us);
  if (traced) {
    rep.spans->add("sim.run", run_span, 0, t_run, t_end);
    rep.pull_ns = su.stream->pull_ns;
  }

  const qes::RunStats& s = rep.stats;
  Digest d;
  for (double v : {s.total_quality, s.max_quality, s.normalized_quality,
                   s.dynamic_energy, s.static_energy, s.wake_energy,
                   s.peak_power, s.end_time, s.mean_latency, s.p50_latency,
                   s.p99_latency}) {
    d.add(v);
  }
  for (std::size_t v : {s.jobs_total, s.jobs_satisfied, s.jobs_partial,
                        s.jobs_zero, s.jobs_discarded_rigid, s.replans,
                        s.core_wakes}) {
    d.add(static_cast<std::uint64_t>(v));
  }
  d.add(rep.events);
  rep.digest = d.hex();
  return rep;
}

}  // namespace

Outcome run_sim_diurnal(const RunOptions& opts) {
  Outcome out;
  (void)host_speed();  // its first call pays for page faults
  const double setup_speed0 = host_speed();
  std::vector<double> setup_s;
  for (int b = 0; b < kSetupBlocks; ++b) {
    const std::int64_t t_setup = now_ns();
    for (int k = 0; k < kSetupsPerBlock; ++k) {
      const Setup su = set_up(opts, nullptr, nullptr, 0);
    }
    setup_s.push_back(seconds_since(t_setup) / kSetupsPerBlock);
  }
  const double setup_speed = 0.5 * (setup_speed0 + host_speed());

  // A process's first repetition often ran slower than the rest (heap
  // growth, cold caches), so it is a warm-up: checked, not timed.
  std::vector<Rep> reps;
  reps.push_back(run_once(opts, false));
  reps.back().warmup = true;
  const std::int64_t t0 = now_ns();
  // At least three timed repetitions (two of each kind when traced), then
  // as many as the budget allows.
  const std::size_t min_reps = opts.trace ? 5 : 4;
  while (reps.size() < min_reps || seconds_since(t0) < opts.seconds) {
    const bool traced = opts.trace && reps.size() % 2 == 0;
    // Only the last traced repetition's spans are written; drop older
    // ones so they do not accumulate.
    if (traced) {
      for (Rep& r : reps) r.spans.reset();
    }
    reps.push_back(run_once(opts, traced));
    if (opts.smoke && reps.size() >= min_reps) break;
  }

  const double budget_w = 1280.0;
  // Times of a repetition are read at kReferenceSpeed (see
  // perfbench/README.md, "Host noise on CPU time").
  std::vector<double> raw_us, plain_us, traced_us, replan_p50_us;
  std::size_t n_replans = 0;
  std::string per_rep;
  for (Rep& r : reps) {
    const qes::RunStats& s = r.stats;
    if (opts.violate) r.pulled += 1;
    out.check(r.pulled == s.jobs_total,
              format("every pulled job is finalized (pulled %llu, "
                     "finalized %zu)",
                     static_cast<unsigned long long>(r.pulled), s.jobs_total));
    out.check(s.jobs_satisfied + s.jobs_partial + s.jobs_zero == s.jobs_total,
              "job outcomes partition the jobs");
    out.check(s.peak_power <= budget_w * (1.0 + 1e-9),
              format("peak power %.9g W <= H = %.0f W", s.peak_power,
                     budget_w));
    out.check(r.digest == reps.front().digest,
              "every repetition reproduces the same simulated statistics");
    out.check(r.replan_us.size() == s.replans,
              "the decorator saw every replan");
    const double us = 1e6 * r.run_cpu_s / static_cast<double>(s.jobs_total);
    const double to_reference = r.speed / kReferenceSpeed;
    per_rep += format(" %.4g%s", us, r.warmup ? "w" : r.registry ? "t" : "");
    if (r.warmup) continue;
    if (r.registry) {
      traced_us.push_back(us * to_reference);
      continue;
    }
    const std::optional<double> p50 = exact_percentile(r.replan_us, 0.50);
    out.check(p50.has_value(), "enough replans for an exact median");
    raw_us.push_back(us);
    plain_us.push_back(us * to_reference);
    replan_p50_us.push_back(p50.value_or(0.0) * to_reference);
    n_replans += r.replan_us.size();
  }
  const qes::RunStats& s = reps.front().stats;
  out.attempted = s.jobs_total;
  out.failed = 0;
  out.note(format("sim_diurnal: %zu repetitions, %zu jobs, %zu replans, "
                  "%llu events each",
                  reps.size(), s.jobs_total, s.replans,
                  static_cast<unsigned long long>(reps.front().events)));
  out.note("digest " + reps.front().digest);
  out.note("CPU us per job by repetition (w = warm-up, t = traced):" +
           per_rep);
  out.note(format("untraced repetitions (medians): %.4g CPU us per job, "
                  "%.4g at %.4g op/s; replan p50 %.4g us at %.4g op/s",
                  median(raw_us), median(plain_us), kReferenceSpeed,
                  median(replan_p50_us), kReferenceSpeed));
  out.note(format("set-ups (median of %zu blocks of %d): %.4g s at host "
                  "speed %.4g op/s",
                  setup_s.size(), kSetupsPerBlock, median(setup_s),
                  setup_speed));

  if (!opts.trace) {
    out.add("setup_s", median(setup_s) * setup_speed / kReferenceSpeed, "s",
            setup_s.size());
    out.add("cpu_us_per_job", median(plain_us), "us", plain_us.size());
    out.add("latency_ms", median(replan_p50_us) * 1e-3, "ms", n_replans);
    out.add("norm_quality", s.normalized_quality, "ratio");
    out.add("quality_per_joule", s.total_quality / s.total_energy(), "1/J");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    return out;
  }

  // Per-layer figures: totals over the traced repetitions, so that the
  // three shares partition the Engine::run time exactly; exact replan
  // percentiles over every sample.
  double run_ns = 0.0, pull_ns = 0.0, replan_ns = 0.0, events = 0.0,
         pulled = 0.0;
  std::vector<double> traced_replan_us;
  const Rep* last = nullptr;
  for (const Rep& r : reps) {
    if (!r.registry) continue;
    last = &r;
    run_ns += r.run_s * 1e9;
    pull_ns += static_cast<double>(r.pull_ns);
    replan_ns += static_cast<double>(r.replan_ns);
    events += static_cast<double>(r.events);
    pulled += static_cast<double>(r.pulled);
    traced_replan_us.insert(traced_replan_us.end(), r.replan_us.begin(),
                            r.replan_us.end());
  }
  const double self_ns = run_ns - pull_ns - replan_ns;
  const std::size_t n_samples = traced_replan_us.size();
  const double p50 = exact_percentile(traced_replan_us, 0.50).value_or(0.0);
  const std::optional<double> p99 = exact_percentile(traced_replan_us, 0.99);
  out.check(p99.has_value(), "enough replan samples for an exact p99");
  out.add("sim.events", static_cast<double>(last->events), "count");
  out.add("sim.self_share", self_ns / run_ns, "ratio");
  out.add("workload.share", pull_ns / run_ns, "ratio");
  out.add("multicore.share", replan_ns / run_ns, "ratio");
  out.add("policy.replans", static_cast<double>(last->stats.replans),
          "count");
  add_policy_metrics(out, *last->registry, "sim", last->stats.replans,
                     last->run_s);
  out.add("core.wakes", static_cast<double>(last->stats.core_wakes), "count");
  out.add("obs.trace_overhead", median(traced_us) / median(plain_us) - 1.0,
          "ratio");
  out.detail("sim.self_ns_per_event", self_ns / events, "ns");
  out.detail("workload.pull_ns", pull_ns / pulled, "ns");
  out.detail("multicore.replan_us_p50", p50, "us", n_samples);
  out.detail("multicore.replan_us_p99", p99.value_or(0.0), "us", n_samples);
  if (!opts.trace_path.empty()) {
    out.check(last->spans->write(opts.trace_path),
              "spans written to " + opts.trace_path);
  }
  return out;
}

}  // namespace perfbench
