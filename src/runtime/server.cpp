#include "runtime/server.hpp"

#include <algorithm>
#include <cstdio>

#include "core/assert.hpp"
#include "obs/trace.hpp"
#include "runq/hotpath.hpp"

namespace qes::runtime {

namespace {

std::chrono::duration<double, std::milli> wall_ms(double ms) {
  return std::chrono::duration<double, std::milli>(ms);
}

runq::ShardedAdmission<Request>::Config admission_config(
    const ServerConfig& cfg) {
  runq::ShardedAdmission<Request>::Config ac;
  ac.shards = static_cast<std::size_t>(cfg.model.cores);
  ac.capacity_per_shard =
      std::max<std::size_t>(1, cfg.admission_capacity / ac.shards);
  ac.drain_quota = cfg.admission_drain_quota;
  ac.steal_threshold = cfg.steal_threshold;
  return ac;
}

}  // namespace

/// Adapter handing ingress admission batches to the server. A separate
/// object (not Server inheriting IngressSink) keeps the wire plane out
/// of Server's public API surface.
class ServerIngressSink final : public net::IngressSink {
 public:
  explicit ServerIngressSink(Server* server) : server_(server) {}
  std::size_t submit_batch(const net::IngressRequest* reqs,
                           std::size_t count) override {
    return server_->ingress_admit(reqs, count);
  }

 private:
  Server* server_;
};

std::string MetricsSnapshot::to_json() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"t_ms\": %.3f, \"admitted\": %zu, \"waiting\": %zu, "
      "\"assigned\": %zu, \"finalized\": %zu, \"satisfied\": %zu, "
      "\"shed\": %zu, \"quality_sum\": %.6f, \"dynamic_energy_j\": %.3f, "
      "\"static_energy_j\": %.3f, \"wake_energy_j\": %.3f, "
      "\"planned_power_w\": %.3f, \"peak_power_w\": %.3f, "
      "\"replans\": %zu, \"cores_asleep\": %zu, \"busy_workers\": %d, "
      "\"resident_jobs\": %zu}",
      t_virtual_ms, admitted, waiting, assigned, finalized, satisfied, shed,
      quality_sum, dynamic_energy_j, static_energy_j, wake_energy_j,
      planned_power_w, peak_power_w, replans, cores_asleep, busy_workers,
      resident_jobs);
  return buf;
}

Server::Server(ServerConfig config)
    : cfg_(std::move(config)),
      clock_(cfg_.time_scale),
      admission_(admission_config(cfg_)),
      // Point the model at the server-owned registry before RuntimeCore
      // copies its config (registry_ is declared ahead of core_), and
      // turn on completion recording when the wire plane will need it.
      core_((cfg_.model.registry = &registry_,
             cfg_.model.record_completions =
                 cfg_.model.record_completions || cfg_.listen_port >= 0,
             cfg_.model)),
      current_job_(static_cast<std::size_t>(cfg_.model.cores)),
      worker_stats_(static_cast<std::size_t>(cfg_.model.cores)) {
  QES_ASSERT(cfg_.deadline_ms > 0.0 && cfg_.tick_wall_ms > 0.0 &&
             cfg_.metrics_interval_ms > 0.0 && cfg_.worker_slice_wall_ms > 0.0);
  QES_ASSERT(cfg_.admission_drain_quota > 0 && cfg_.plan_cell_segments > 0);
  for (auto& j : current_job_) j.store(0, std::memory_order_relaxed);
  plan_cells_.reserve(static_cast<std::size_t>(cfg_.model.cores));
  for (int i = 0; i < cfg_.model.cores; ++i) {
    plan_cells_.push_back(
        std::make_unique<runq::PlanCell>(cfg_.plan_cell_segments));
  }
  published_asleep_.assign(static_cast<std::size_t>(cfg_.model.cores), 0);
  // Resolve hot-path/periodic instruments exactly once: registry lookups
  // take the registry mutex, which ingress workers and the trigger
  // thread must never pay per request or per tick.
  shed_counter_ = &registry_.counter(
      "qesd_shed_total",
      "requests rejected at admission (ring full or draining)");
  stolen_counter_ = &registry_.counter(
      "qesd_admission_stolen_total",
      "requests drained from a sibling shard's ring at C-RR boundaries");
  plan_trunc_counter_ = &registry_.counter(
      "qesd_plan_truncated_total",
      "plan segments dropped at seqlock publication (cell capacity)");
  depth_gauge_ = &registry_.gauge(
      "qesd_admission_queue_depth",
      "admission ring occupancy at the last trigger tick");
  replan_hist_ = &registry_.histogram(
      "qesd_replan_publish_ms",
      "wall time to replan and publish all core plans (ms)", {},
      obs::Histogram(0.001, 2.0, 24));
  ravg_gauges_.reserve(static_cast<std::size_t>(cfg_.model.cores));
  for (int i = 0; i < cfg_.model.cores; ++i) {
    ravg_gauges_.push_back(&registry_.gauge(
        "qesd_core_load_ravg",
        "decayed running-average admission backlog per core shard",
        {{"core", std::to_string(i)}}));
  }
  // Hot-path telemetry plane: one shard row + one flight ring per hot
  // thread — workers 0..cores-1, the trigger at `cores`, ingress workers
  // above that (ServerShardSlot documents the mapping and schema).
  trigger_shard_ = static_cast<std::size_t>(cfg_.model.cores);
  ingress_shard_base_ = trigger_shard_ + 1;
  const std::size_t hot_threads =
      ingress_shard_base_ +
      static_cast<std::size_t>(std::max(cfg_.ingress_workers, 1));
  shards_ = std::make_unique<obs::ShardSet>(
      hot_threads,
      std::vector<obs::ShardSlotSpec>{
          {"qesd_hot_admitted_total",
           "jobs admitted into the runtime core (hot-path shards)"},
          {"qesd_hot_drained_total",
           "requests drained from the admission rings (hot-path shards)"},
          {"qesd_hot_stolen_total",
           "requests stolen across admission shards (hot-path shards)"},
          {"qesd_hot_shed_total",
           "wire requests shed at admission (hot-path shards)"},
          {"qesd_hot_plan_publish_total",
           "seqlock plan publications (hot-path shards)"},
          {"qesd_hot_plan_flips_total",
           "plan-generation changes observed by pacing workers"},
          {"qesd_hot_pace_slices_total",
           "executed worker pacing slices (hot-path shards)"},
          {"qesd_hot_idle_polls_total",
           "plan-exhausted idle polls by pacing workers"}},
      &registry_);
  flight_ =
      std::make_unique<obs::FlightRecorder>(hot_threads, cfg_.flight_ring_slots);
  start_wall_ = VirtualClock::WallClock::now();
}

double Server::wall_elapsed_s() const {
  return std::chrono::duration<double>(VirtualClock::WallClock::now() -
                                       start_wall_)
      .count();
}

obs::EnergyAttribution Server::attribution() const {
  std::lock_guard<std::mutex> lk(mu_);
  return core_.attribution();
}

Server::~Server() {
  if (started_ && !stopped_) (void)drain_and_stop();
}

void Server::start() {
  QES_ASSERT_MSG(!started_, "start() may be called once");
  started_ = true;
  if (cfg_.http_port >= 0) {
    exporter_ = std::make_unique<obs::HttpExporter>(cfg_.http_port);
    // Scrapes fold the hot-path shards first so the aggregate
    // qesd_hot_* counters are current as of this request (folding is
    // mutex-serialized against the metrics tick; scrape threads are off
    // the hot path by definition).
    exporter_->handle("/metrics", "text/plain; version=0.0.4", [this] {
      shards_->fold_into_registry();
      return registry_.to_prometheus();
    });
    exporter_->handle("/metrics.json", "application/json", [this] {
      shards_->fold_into_registry();
      return registry_.to_json();
    });
    exporter_->handle("/statz", "application/json", [this] {
      return shards_->statz_json(wall_elapsed_s());
    });
    exporter_->handle("/healthz", "application/json", [this] {
      return "{\"status\": \"ok\", \"requests_served\": " +
             std::to_string(exporter_->requests_served()) +
             ", \"snapshot\": " + snapshot().to_json() + "}\n";
    });
    exporter_->handle("/tracez", "application/x-ndjson", [this] {
      if (cfg_.model.trace == nullptr) return std::string();
      constexpr std::size_t kTracezCap = 256;
      const std::size_t buffered = cfg_.model.trace->size();
      const std::size_t dropped = cfg_.model.trace->dropped();
      std::string out;
      std::size_t shown = 0;
      for (const obs::TraceEvent& e : cfg_.model.trace->tail(kTracezCap)) {
        out += obs::to_json(e);
        out += '\n';
        ++shown;
      }
      // Trailer keeps the output bounded AND honest: consumers can tell
      // a complete tail from a truncated one.
      out += "{\"tracez\": {\"shown\": " + std::to_string(shown) +
             ", \"buffered\": " + std::to_string(buffered) +
             ", \"dropped\": " + std::to_string(dropped) +
             ", \"truncated\": " +
             ((shown < buffered || dropped > 0) ? "true" : "false") + "}}\n";
      return out;
    });
    exporter_->start();
  }
  threads_.reserve(static_cast<std::size_t>(cfg_.model.cores) + 2);
  threads_.emplace_back([this] { trigger_loop(); });
  threads_.emplace_back([this] { metrics_loop(); });
  for (int i = 0; i < cfg_.model.cores; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
  // The wire plane comes up last: nothing arrives before the trigger
  // thread exists to admit it.
  if (cfg_.listen_port >= 0) {
    net::IngressConfig ic;
    ic.port = cfg_.listen_port;
    ic.workers = cfg_.ingress_workers;
    ic.max_connections = cfg_.ingress_max_connections;
    ic.registry = &registry_;
    ingress_sink_ = std::make_unique<ServerIngressSink>(this);
    ingress_ = std::make_unique<net::Ingress>(ic, ingress_sink_.get());
    ingress_->start();
  }
}

int Server::http_port() const {
  return exporter_ ? exporter_->port() : -1;
}

int Server::listen_port() const {
  return ingress_ ? ingress_->port() : -1;
}

runq::AdmissionLedger Server::admission_ledger() const {
  return admission_.ledger();
}

std::size_t Server::admission_shards() const { return admission_.shards(); }

std::size_t Server::ingress_admit(const net::IngressRequest* reqs,
                                  std::size_t count) {
  // Convert the wire batch into this ingress worker's scratch and push
  // it at the worker's affine ring with ONE prefix-accepting batch call;
  // the rejected suffix is shed here (ledgered exactly once) and the
  // ingress writes the shed REPLYs back on the wire. thread_local keeps
  // concurrent ingress workers apart and makes the scratch's growth a
  // one-time cost, not a steady-state allocation.
  thread_local std::vector<Request> batch;
  // One-time shard binding per ingress worker thread: each worker serves
  // exactly one Ingress (hence one Server), so a single cached owner
  // suffices; the fetch_add happens once per thread lifetime, off the
  // steady-state path.
  thread_local Server* shard_owner = nullptr;
  thread_local std::size_t my_shard = 0;
  if (shard_owner != this) {
    shard_owner = this;
    const std::size_t span =
        std::max<std::size_t>(1, shards_->shards() - ingress_shard_base_);
    my_shard = ingress_shard_base_ +
               ingress_slot_next_.fetch_add(1, std::memory_order_relaxed) % span;
  }
  batch.clear();
  batch.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const net::SubmitFrame& f = reqs[i].submit;
    Request r;
    r.demand = f.demand;
    r.partial_ok = f.partial_ok;
    r.weight = f.weight;
    r.deadline_ms = f.deadline_ms;
    r.tag = reqs[i].token;
    batch.push_back(r);
  }
  const std::size_t accepted = admission_.push_many(batch.data(), count);
  const std::size_t rejected = count - accepted;
  flight_->record(my_shard, obs::FlightKind::kAdmit,
                  static_cast<std::uint32_t>(accepted),
                  static_cast<std::uint64_t>(count));
  if (rejected > 0) {
    shards_->add(my_shard, kShardSlotShed, rejected);
    flight_->record(my_shard, obs::FlightKind::kShed,
                    static_cast<std::uint32_t>(rejected), 0);
    shed_.fetch_add(rejected, std::memory_order_relaxed);
    shed_counter_->add(static_cast<double>(rejected));
    if (cfg_.model.trace != nullptr) {
      const Time t = clock_.now();
      for (std::size_t i = 0; i < rejected; ++i) {
        cfg_.model.trace->push({.kind = obs::TraceEvent::Kind::Shed, .t = t});
      }
    }
  }
  if (accepted > 0) poke_trigger();
  return accepted;
}

bool Server::submit(const Request& request,
                    std::chrono::milliseconds timeout) {
  QES_ASSERT(request.demand > 0.0 && request.weight > 0.0);
  // Bounded retry against this thread's affine ring: the trigger drains
  // every tick, so a full ring under sustainable load clears within one
  // tick_wall_ms. Ledger credit happens exactly once per request.
  const auto deadline = VirtualClock::WallClock::now() + timeout;
  for (;;) {
    if (admission_.try_push_no_ledger(request)) {
      admission_.credit_pushed();
      return true;
    }
    if (admission_.closed() || VirtualClock::WallClock::now() >= deadline) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  admission_.credit_shed();
  shed_.fetch_add(1, std::memory_order_relaxed);
  shed_counter_->inc();
  if (cfg_.model.trace != nullptr) {
    cfg_.model.trace->push(
        {.kind = obs::TraceEvent::Kind::Shed, .t = clock_.now()});
  }
  return false;
}

void Server::poke_trigger() {
  // Lock-free poke (workers call this on their pacing path). The store
  // is not made under trig_mu_, so a notify can race the trigger's
  // predicate check and be missed — bounded by the tick_wall_ms timeout.
  poked_.store(true, std::memory_order_release);
  trig_cv_.notify_one();
}

void Server::publish_plans() {
  // plan_gen_ is only written here, always under mu_.
  const std::uint64_t gen = plan_gen_.load(std::memory_order_relaxed) + 1;
  std::size_t truncated = 0;
  for (int i = 0; i < cfg_.model.cores; ++i) {
    const bool asleep = core_.core_asleep(i);
    truncated += plan_cells_[static_cast<std::size_t>(i)]->publish(
        core_.plan(i), gen,
        asleep ? runq::CoreState::kSleep : runq::CoreState::kActive);
    published_asleep_[static_cast<std::size_t>(i)] = asleep ? 1 : 0;
  }
  // Workers poll plan_gen_ between pacing chunks; the release store
  // makes the freshly published cells visible before the generation
  // bump is.
  plan_gen_.store(gen, std::memory_order_release);
  // Counted under mu_ — publish_plans runs on the trigger thread and,
  // for broker budget updates, on the caller's thread, but never
  // concurrently, so the shard's single-writer protocol holds.
  shards_->add(trigger_shard_, kShardSlotPlanPublish);
  flight_->record(trigger_shard_, obs::FlightKind::kPlanFlip, 0, gen);
  if (truncated > 0) {
    plan_trunc_counter_->add(static_cast<double>(truncated));
  }
}

void Server::process_tick() {
  const Time vnow = clock_.now();
  const std::uint64_t beat =
      heartbeat_.fetch_add(1, std::memory_order_relaxed) + 1;
  flight_->record(trigger_shard_, obs::FlightKind::kTick, 0, beat);
  depth_gauge_->set(static_cast<double>(admission_.approx_depth()));
  runq::ShardedAdmission<Request>::DrainResult dres;
  std::size_t admitted_total = 0;
  admission_batch_.clear();
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Drained under mu_ so drain_and_stop() can never observe empty
    // rings while a batch is still waiting to be admitted. One quota-
    // bounded C-RR pass: shard order round-robins the cores, dry shards
    // steal from backlogged siblings.
    dres = admission_.drain_crr(admission_batch_);
    core_.advance(std::max(vnow, core_.now()));
    for (const Request& r : admission_batch_) {
      Job j;
      j.id = core_.admitted() + 1;
      j.release = core_.now();
      // Per-request deadlines are clamped to the last admitted deadline
      // to stay agreeable (monotone in admission order) — with the
      // constant server default this clamp never fires, so the
      // in-process path is byte-identical.
      const Time rel = r.deadline_ms > 0.0 ? r.deadline_ms : cfg_.deadline_ms;
      j.deadline = std::max(core_.now() + rel, core_.horizon());
      j.demand = r.demand;
      j.partial_ok = r.partial_ok;
      j.weight = r.weight;
      core_.submit(j, r.tag);
    }
    admitted_total = core_.admitted();
    if (core_.check_triggers()) {
      const auto t0 = VirtualClock::WallClock::now();
      core_.replan();
      publish_plans();
      const std::chrono::duration<double, std::milli> dt =
          VirtualClock::WallClock::now() - t0;
      replan_hist_->record(dt.count());
    } else if (cfg_.model.power_model.has_sleep()) {
      // A core can park inside advance() (its plan exhausted with
      // sleep_after armed) without any replan firing. Re-publish so
      // workers see the C-state flip and stop idle-polling.
      for (int i = 0; i < cfg_.model.cores; ++i) {
        const char asleep = core_.core_asleep(i) ? 1 : 0;
        if (published_asleep_[static_cast<std::size_t>(i)] != asleep) {
          publish_plans();
          break;
        }
      }
    }
  }
  if (!admission_batch_.empty()) {
    shards_->add(trigger_shard_, kShardSlotDrained, admission_batch_.size());
    shards_->add(trigger_shard_, kShardSlotAdmitted, admission_batch_.size());
    flight_->record(trigger_shard_, obs::FlightKind::kDrain,
                    static_cast<std::uint32_t>(admission_batch_.size()),
                    admitted_total);
  }
  if (dres.stolen > 0) {
    shards_->add(trigger_shard_, kShardSlotStolen, dres.stolen);
    flight_->record(trigger_shard_, obs::FlightKind::kSteal,
                    static_cast<std::uint32_t>(dres.stolen), 0);
    stolen_counter_->add(static_cast<double>(dres.stolen));
  }
  for (std::size_t s = 0; s < admission_.shards(); ++s) {
    ravg_gauges_[s]->set(admission_.load_ravg(s));
  }
  // Outside mu_: pushing REPLY frames to the ingress inboxes must never
  // hold the model lock.
  forward_completions();
}

void Server::forward_completions() {
  if (!ingress_) return;
  completions_scratch_.clear();
  wire_completions_.clear();
  {
    std::lock_guard<std::mutex> lock(mu_);
    core_.drain_completions(completions_scratch_);
    for (const JobCompletion& c : completions_scratch_) {
      if (c.tag == 0) continue;  // in-process submission, no wire client
      net::Completion wc;
      wc.token = c.tag;
      wc.status =
          c.satisfied ? net::ReplyStatus::kSatisfied : net::ReplyStatus::kPartial;
      wc.quality = c.quality;
      wc.latency_ms = c.latency_ms;
      wire_completions_.push_back(wc);
    }
  }
  if (!wire_completions_.empty()) {
    ingress_->complete_batch(wire_completions_.data(),
                             wire_completions_.size());
  }
}

void Server::trigger_loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    {
      std::unique_lock<std::mutex> lock(trig_mu_);
      trig_cv_.wait_for(lock, wall_ms(cfg_.tick_wall_ms), [this] {
        return stop_.load(std::memory_order_acquire) ||
               poked_.load(std::memory_order_acquire);
      });
      poked_.store(false, std::memory_order_relaxed);
    }
    if (stop_.load(std::memory_order_acquire)) break;
    process_tick();
  }
}

void Server::wait_wall(VirtualClock::WallClock::time_point tp,
                       std::uint64_t seen_gen) {
  // Lock-free pacing: chunked sleeps that re-check stop and the plan
  // generation, so a fresh publication truncates the wait within one
  // worker_slice_wall_ms chunk. No mutex, no condition variable — this
  // runs on the workers' zero-lock steady-state path.
  const auto chunk = std::chrono::duration_cast<VirtualClock::WallClock::duration>(
      wall_ms(cfg_.worker_slice_wall_ms));
  for (;;) {
    if (stop_.load(std::memory_order_acquire) ||
        plan_gen_.load(std::memory_order_acquire) != seen_gen) {
      return;
    }
    const auto now = VirtualClock::WallClock::now();
    if (now >= tp) return;
    const auto remain = tp - now;
    std::this_thread::sleep_for(remain < chunk ? remain : chunk);
  }
}

void Server::worker_loop(int core) {
  const std::size_t idx = static_cast<std::size_t>(core);
  WorkerStats& ws = worker_stats_[idx];
  const Time slice_virtual = cfg_.worker_slice_wall_ms * clock_.scale();
  runq::PlanCell& cell = *plan_cells_[idx];
  runq::PlanView view;
  view.reserve(cfg_.plan_cell_segments);
  // Everything past this point is the steady-state pace loop: zero
  // locks, zero heap allocations (the view is pre-reserved, the seqlock
  // read path is plain atomic loads). The interposer counters prove it —
  // the delta is published into WorkerStats at exit and gated at zero by
  // bench/e2e_latency.
  const runq::hotpath::Counters hp_base = runq::hotpath::snapshot();
  std::uint64_t prev_gen = 0;
  while (!stop_.load(std::memory_order_acquire)) {
    // Read the generation before the cell: a publication racing this
    // read leaves plan_gen_ != seen_gen, so the next wait returns
    // immediately and the worker re-reads instead of pacing stale.
    const std::uint64_t seen_gen = plan_gen_.load(std::memory_order_acquire);
    if (seen_gen != prev_gen) {
      // Shard add + flight record are plain atomic loads/stores — no
      // RMW, locks, or allocations — so the interposer gates stay clean.
      prev_gen = seen_gen;
      shards_->add(idx, kShardSlotPlanFlips);
      flight_->record(idx, obs::FlightKind::kPlanFlip,
                      static_cast<std::uint32_t>(core), seen_gen);
    }
    cell.read(view);
    const Time vnow = clock_.now();
    const Segment* seg = nullptr;
    for (const Segment& s : view.segments) {
      if (s.t1 > vnow + kTimeEps) {
        seg = &s;
        break;
      }
    }
    if (seg == nullptr) {
      current_job_[idx].store(0, std::memory_order_relaxed);
      if (view.core_state == runq::CoreState::kSleep) {
        // Core is parked (race-to-idle): no poke, no idle-poll count —
        // just doze until a publish flips the C-state back. wait_wall
        // returns early on any generation bump, so arrival latency is
        // still bounded by the trigger tick, not this doze length.
        wait_wall(
            VirtualClock::WallClock::now() +
                std::chrono::duration_cast<VirtualClock::WallClock::duration>(
                    wall_ms(20.0 * cfg_.tick_wall_ms)),
            seen_gen);
        continue;
      }
      // Plan exhausted: this is the idle-core trigger's signal. Poke the
      // trigger thread and doze until a new plan is published.
      shards_->add(idx, kShardSlotIdlePolls);
      poke_trigger();
      wait_wall(VirtualClock::WallClock::now() +
                    std::chrono::duration_cast<VirtualClock::WallClock::duration>(
                        wall_ms(5.0 * cfg_.tick_wall_ms)),
                seen_gen);
      continue;
    }
    if (seg->t0 > vnow + kTimeEps) {
      // Planned but not started yet (DVFS idle gap): sleep to the start.
      current_job_[idx].store(0, std::memory_order_relaxed);
      wait_wall(clock_.wall_deadline(seg->t0), seen_gen);
      continue;
    }
    // Execute one time-dilated slice of the active segment: the worker
    // "runs" the job by holding it as current for the slice's wall-time
    // extent — speed seg->speed means seg->speed * 1000 / time_scale
    // units per wall second.
    current_job_[idx].store(seg->job, std::memory_order_relaxed);
    const Time slice_end = std::min(seg->t1, vnow + slice_virtual);
    wait_wall(clock_.wall_deadline(slice_end), seen_gen);
    const Time done = std::min(clock_.now(), seg->t1);
    if (done > vnow) {
      ws.busy_virtual_ms += done - vnow;
      ++ws.slices;
      shards_->add(idx, kShardSlotPaceSlices);
    }
    if (clock_.now() + kTimeEps >= seg->t1) {
      // Segment boundary: completion processing (and possibly the idle
      // trigger) is due on the model state.
      poke_trigger();
    }
  }
  current_job_[idx].store(0, std::memory_order_relaxed);
  const runq::hotpath::Counters hp_end = runq::hotpath::snapshot();
  ws.steady_allocs = hp_end.allocs - hp_base.allocs;
  ws.steady_mutex_locks = hp_end.mutex_locks - hp_base.mutex_locks;
}

MetricsSnapshot Server::snapshot() const {
  CoreCounters c;
  {
    std::lock_guard<std::mutex> lock(mu_);
    c = core_.counters();
  }
  MetricsSnapshot s;
  s.t_virtual_ms = c.now;
  s.admitted = c.admitted;
  s.waiting = c.waiting;
  s.assigned = c.assigned;
  s.finalized = c.finalized;
  s.satisfied = c.satisfied;
  s.shed = shed_.load(std::memory_order_relaxed);
  s.quality_sum = c.quality_sum;
  s.dynamic_energy_j = c.dynamic_energy;
  s.static_energy_j = c.static_energy;
  s.wake_energy_j = c.wake_energy;
  s.planned_power_w = c.planned_power;
  s.peak_power_w = c.peak_power;
  s.replans = c.replans;
  s.cores_asleep = c.cores_asleep;
  s.resident_jobs = c.resident_jobs;
  for (const auto& j : current_job_) {
    if (j.load(std::memory_order_relaxed) != 0) ++s.busy_workers;
  }
  return s;
}

void Server::take_snapshot() {
  const MetricsSnapshot s = snapshot();
  registry_.gauge("qesd_virtual_time_ms", "current virtual time")
      .set(s.t_virtual_ms);
  registry_
      .gauge("qesd_planned_power_watts",
             "instantaneous dynamic power implied by the installed plans")
      .set(s.planned_power_w);
  registry_
      .gauge("qesd_live_dynamic_energy_joules",
             "dynamic energy integrated so far")
      .set(s.dynamic_energy_j);
  registry_.gauge("qesd_busy_workers", "workers holding an active job")
      .set(static_cast<double>(s.busy_workers));
  registry_
      .gauge("qesd_live_static_energy_joules",
             "static (leakage + C-state) energy integrated so far")
      .set(s.static_energy_j);
  registry_.gauge("qesd_cores_asleep", "cores currently parked in sleep")
      .set(static_cast<double>(s.cores_asleep));
  std::lock_guard<std::mutex> lock(snap_mu_);
  snapshots_.push_back(s);
}

void Server::metrics_loop() {
  // Chunked sleep (no condition variable): stop latency is one chunk,
  // which is far below the snapshot cadence.
  const auto chunk = std::chrono::duration_cast<VirtualClock::WallClock::duration>(
      wall_ms(std::min(cfg_.metrics_interval_ms, 20.0)));
  while (!stop_.load(std::memory_order_acquire)) {
    const auto wake =
        VirtualClock::WallClock::now() +
        std::chrono::duration_cast<VirtualClock::WallClock::duration>(
            wall_ms(cfg_.metrics_interval_ms));
    while (!stop_.load(std::memory_order_acquire)) {
      const auto now = VirtualClock::WallClock::now();
      if (now >= wake) break;
      const auto remain = wake - now;
      std::this_thread::sleep_for(remain < chunk ? remain : chunk);
    }
    if (stop_.load(std::memory_order_acquire)) break;
    take_snapshot();
    // The metrics thread is the shard plane's single window roller (the
    // interval default makes these the 1 s /statz windows) and folds the
    // shard totals into the registry each tick.
    shards_->fold_into_registry();
    shards_->roll_window(wall_elapsed_s());
  }
}

RunStats Server::drain_and_stop() {
  QES_ASSERT_MSG(started_, "drain_and_stop() requires start()");
  if (stopped_) {
    QES_ASSERT(final_stats_valid_);
    return final_stats_;
  }
  admission_.close();
  // Serve out the tail: the trigger thread keeps advancing virtual time,
  // so every admitted job finalizes within deadline_ms virtual ms of the
  // last admission. The rings may hold more than one tick's drain quota,
  // so the loop pokes until they are empty AND the model is settled.
  for (;;) {
    poke_trigger();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (admission_.empty() && core_.all_finalized()) {
        // Ledger credits are relaxed producer-side counters that can lag
        // the ring push by an instant; wait until they reconcile so the
        // post-join assertions are race-free.
        const runq::AdmissionLedger led = admission_.ledger();
        if (led.pushed == led.drained && led.drained == core_.admitted()) {
          break;
        }
      }
    }
    std::this_thread::sleep_for(wall_ms(2.0 * cfg_.tick_wall_ms));
  }
  take_snapshot();  // final observation before the threads stop
  stop_.store(true, std::memory_order_release);
  poke_trigger();
  for (std::thread& t : threads_) t.join();
  threads_.clear();
  stopped_ = true;
  // Hot threads are quiesced: this fold lands the exact shard totals in
  // the registry before the final scrape/stats.
  shards_->fold_into_registry();
  // The trigger thread is gone: flush any completions it finalized but
  // had not yet forwarded, then stop the ingress — its workers deliver
  // the buffered REPLY frames before closing the connections.
  forward_completions();
  if (ingress_) ingress_->stop();
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Ring-ledger reconciliation: every request a producer pushed was
    // drained and admitted exactly once. (Shed equality — led.shed ==
    // shed() — is asserted by the tests/benches once producers are
    // quiescent; a straggling producer may still be crediting a shed
    // here.)
    const runq::AdmissionLedger led = admission_.ledger();
    QES_ASSERT_MSG(led.pushed == led.drained,
                   "admission rings must drain fully before stop");
    QES_ASSERT_MSG(led.drained == core_.admitted(),
                   "every drained request must be admitted exactly once");
    final_stats_ = core_.finish(core_.horizon());
    final_stats_valid_ = true;
  }
  // The exporter stays answerable through the drain (handlers only read
  // thread-safe state); stop it once the final statistics exist.
  if (exporter_) exporter_->stop();
  return final_stats_;
}

void Server::set_power_budget(Watts budget) {
  std::lock_guard<std::mutex> lock(mu_);
  // final_stats_valid_ is written only under mu_ (drain/kill), so this
  // check makes broker updates harmless during teardown.
  if (final_stats_valid_) return;
  core_.advance(std::max(clock_.now(), core_.now()));
  core_.set_power_budget(budget);
  // Replan immediately: a lowered budget must never leave plans that
  // exceed it installed past the next advance.
  core_.replan();
  publish_plans();
}

Watts Server::power_budget() const {
  std::lock_guard<std::mutex> lock(mu_);
  return core_.config().power_budget;
}

Watts Server::power_request() const {
  std::lock_guard<std::mutex> lock(mu_);
  return core_.power_request();
}

Server::KillReport Server::kill() {
  QES_ASSERT_MSG(started_ && !stopped_, "kill() requires a live server");
  admission_.close();
  stop_.store(true, std::memory_order_release);
  poke_trigger();
  for (std::thread& t : threads_) t.join();
  threads_.clear();
  stopped_ = true;
  shards_->fold_into_registry();

  KillReport report;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Account everything executed up to the kill instant, then cut the
    // rest loose. Requests still buffered in the rings were never
    // admitted — they go back to the cluster verbatim (the threads are
    // joined, so this thread is the rings' consumer now).
    core_.advance(std::max(clock_.now(), core_.now()));
    admission_.drain_all(report.pending);
    report.abandoned = core_.abandon_unfinalized();
    final_stats_ = core_.finish(core_.now());
    final_stats_valid_ = true;
    report.stats = final_stats_;
  }
  // A killed node answers nothing: undelivered REPLY frames die with it
  // (clients observe the closed connections), and no scrapes are served.
  if (ingress_) ingress_->stop();
  if (exporter_) exporter_->stop();
  return report;
}

const std::vector<MetricsSnapshot>& Server::snapshots() const {
  QES_ASSERT_MSG(stopped_, "snapshots() is valid after drain_and_stop()");
  return snapshots_;
}

const std::vector<WorkerStats>& Server::worker_stats() const {
  QES_ASSERT_MSG(stopped_, "worker_stats() is valid after drain_and_stop()");
  return worker_stats_;
}

}  // namespace qes::runtime
