// qesd server: the concurrent shell around RuntimeCore.
//
// Thread/ownership model (see src/runtime/README.md and
// docs/ARCHITECTURE.md "Hot path" for the full story):
//
//   producers (N)  --Request-->  runq::ShardedAdmission (one bounded
//                  lock-free MPSC ring per core shard, thread-affine
//                  routing; failed pushes are "shed", ledger-exact)
//   trigger (1)    every tick: drains the rings at a per-shard quota
//                  (stealing from backlogged siblings when a shard runs
//                  dry — the C-RR boundary), advances RuntimeCore to the
//                  current virtual time, evaluates the paper's triggers,
//                  replans, and publishes per-core plans through seqlock
//                  runq::PlanCells
//   workers (m)    one per core: read the published plan with zero locks
//                  and zero atomic RMW (seqlock read path), sleep/yield
//                  through each segment at the time-dilated virtual
//                  speed, poke the trigger at segment boundaries and
//                  when their plan runs dry (the idle-core trigger)
//   metrics (1)    periodic JSON snapshots of the live counters
//
// All model state (RuntimeCore) is guarded by one mutex, mutated only by
// the trigger thread and read by the metrics thread; pacing workers
// touch nothing but the seqlock plan cells, the virtual clock, and
// per-worker atomics — their steady-state loop takes no locks and does
// no heap allocations (gated by the interposer counters in
// bench/replan_kernel and bench/e2e_latency via runq/hotpath.hpp).
// Because every quality/energy number is computed by the same
// deterministic RuntimeCore the conformance harness drives in lockstep
// against sim::Engine, the live runtime's accounting stays anchored to
// the simulator.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/ingress.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/http_exporter.hpp"
#include "obs/registry.hpp"
#include "obs/shard_set.hpp"
#include "runq/admission.hpp"
#include "runq/plan_cell.hpp"
#include "runtime/clock.hpp"
#include "runtime/core.hpp"

namespace qes::runtime {

/// A client request; release/deadline/id are stamped at admission.
struct Request {
  Work demand = 0.0;
  bool partial_ok = true;
  double weight = 1.0;
  /// Relative deadline override (virtual ms); 0 uses the server default.
  /// Stamped deadlines are clamped to stay agreeable (never earlier than
  /// an already-admitted job's), matching the paper's job model.
  Time deadline_ms = 0.0;
  /// Opaque completion routing tag (the wire ingress token); 0 = none.
  std::uint64_t tag = 0;
};

struct ServerConfig {
  RuntimeConfig model;
  /// Virtual milliseconds per wall millisecond (>1 compresses wall time).
  double time_scale = 1.0;
  /// Relative deadline stamped at admission (virtual ms).
  Time deadline_ms = 150.0;
  /// Total admission bound, split evenly across the per-core rings;
  /// pushes beyond a ring's share are shed (submit() retries up to its
  /// timeout first).
  std::size_t admission_capacity = 4096;
  /// Trigger-thread cadence (wall ms).
  double tick_wall_ms = 2.0;
  /// Metrics snapshot cadence (wall ms).
  double metrics_interval_ms = 1000.0;
  /// Worker pacing granularity (wall ms).
  double worker_slice_wall_ms = 1.0;
  /// Max requests one shard contributes per trigger tick; leftover
  /// quota from a dry shard is spent stealing from the most backlogged
  /// sibling (runq work stealing at the C-RR boundary).
  std::size_t admission_drain_quota = 1024;
  /// Minimum sibling backlog before it qualifies as a steal victim.
  std::size_t steal_threshold = 8;
  /// Segment capacity of each seqlock plan cell; longer plans are
  /// truncated at publication (counted in qesd_plan_truncated_total —
  /// pacing fidelity, never accounting, is at stake).
  std::size_t plan_cell_segments = 4096;
  /// HTTP scrape endpoint: -1 disables it, 0 binds an ephemeral port
  /// (read back via Server::http_port()), anything else binds that port.
  /// Serves /metrics, /metrics.json, /healthz, and /tracez on 127.0.0.1
  /// from start() until the final statistics exist.
  int http_port = -1;
  /// Wire-level request plane (src/net/): -1 disables it, 0 binds an
  /// ephemeral port (read back via Server::listen_port()), anything else
  /// binds that port. Jobs submitted over the wire get REPLY frames on
  /// finalization; admission overload sheds on the wire.
  int listen_port = -1;
  /// Ingress accept-sharding worker threads (listen_port >= 0 only).
  int ingress_workers = 2;
  /// Per-ingress-worker connection cap.
  int ingress_max_connections = 4096;
  /// Flight-recorder ring capacity per hot thread (rounded up to a power
  /// of two): the last N admit/drain/steal/shed/plan-flip events kept
  /// for the black-box dump (obs/flight_recorder.hpp).
  std::size_t flight_ring_slots = 1024;
};

/// Slot schema of the server's hot-path telemetry plane (obs::ShardSet):
/// one wait-free cell row per hot thread — shard i < cores is worker i,
/// shard `cores` is the trigger thread, shards above that are ingress
/// workers. Producer threads calling submit() are NOT shard-owned (any
/// thread may produce) and keep using the registry counters directly.
enum ServerShardSlot : std::size_t {
  kShardSlotAdmitted = 0,   ///< jobs admitted into RuntimeCore (trigger)
  kShardSlotDrained,        ///< requests drained from the rings (trigger)
  kShardSlotStolen,         ///< requests stolen across shards (trigger)
  kShardSlotShed,           ///< wire requests shed at admission (ingress)
  kShardSlotPlanPublish,    ///< publish_plans() invocations
  kShardSlotPlanFlips,      ///< plan-generation changes workers observed
  kShardSlotPaceSlices,     ///< executed pacing slices (workers)
  kShardSlotIdlePolls,      ///< plan-exhausted idle polls (workers)
  kShardSlotCount,
};

/// One periodic observation of the live system.
struct MetricsSnapshot {
  Time t_virtual_ms = 0.0;
  std::size_t admitted = 0;
  std::size_t waiting = 0;
  std::size_t assigned = 0;
  std::size_t finalized = 0;
  std::size_t satisfied = 0;
  std::size_t shed = 0;
  double quality_sum = 0.0;
  Joules dynamic_energy_j = 0.0;
  Joules static_energy_j = 0.0;
  Joules wake_energy_j = 0.0;
  Watts planned_power_w = 0.0;
  Watts peak_power_w = 0.0;
  std::size_t replans = 0;
  std::size_t cores_asleep = 0;
  int busy_workers = 0;
  /// Job records the core still holds (admitted minus released).
  std::size_t resident_jobs = 0;

  [[nodiscard]] std::string to_json() const;
};

/// Per-worker execution counters (written only by the owning worker
/// thread; read after the workers have been joined).
struct WorkerStats {
  std::uint64_t slices = 0;
  Time busy_virtual_ms = 0.0;
  /// Heap allocations / mutex acquisitions observed on the worker's
  /// steady-state loop (after plan-view reservation). Always 0 unless a
  /// bench installed the runq::hotpath interposers — then any nonzero
  /// value is a hot-path violation the bench fails on.
  std::uint64_t steady_allocs = 0;
  std::uint64_t steady_mutex_locks = 0;
};

class Server {
 public:
  explicit Server(ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Launches the worker, trigger, and metrics threads.
  void start();

  /// Producer-facing admission. Retries up to `timeout` for ring space
  /// in this thread's affine shard; returns false (and counts the
  /// request as shed) when the ring stays full or the server is
  /// draining.
  bool submit(const Request& request, std::chrono::milliseconds timeout);

  /// Closes admission, serves every admitted request to finalization
  /// (the last deadline passes at most deadline_ms virtual ms after the
  /// final admission), stops all threads, and returns the final run
  /// statistics. Idempotent.
  RunStats drain_and_stop();

  // ---- cluster hooks (src/cluster/) ----

  /// Everything the cluster must redistribute after a kill(): admitted
  /// jobs cut short (with their remaining demand) and queued requests
  /// that were never admitted, plus this node's final accounting.
  struct KillReport {
    std::vector<AbandonedJob> abandoned;
    std::vector<Request> pending;
    RunStats stats;
  };

  /// Replaces the node's power budget H (watts) and atomically replans
  /// and republishes under the model lock, so the installed plans never
  /// exceed the new bound. No-op once the final statistics exist.
  void set_power_budget(Watts budget);

  /// Current node budget H (watts).
  [[nodiscard]] Watts power_budget() const;

  /// The node's load signal for the cluster budget broker:
  /// RuntimeCore's budget-free power request (see core.hpp).
  [[nodiscard]] Watts power_request() const;

  /// Fault injection: hard-stops the node NOW. Admission closes, every
  /// thread stops, unfinished admitted jobs are abandoned, and the
  /// node's final statistics cover only the work finalized here (a later
  /// drain_and_stop() returns the same stats). Call once, and never
  /// concurrently with drain_and_stop().
  [[nodiscard]] KillReport kill();

  [[nodiscard]] const VirtualClock& clock() const { return clock_; }
  [[nodiscard]] Time now() const { return clock_.now(); }
  [[nodiscard]] std::size_t shed() const { return shed_.load(); }

  /// Exact admission accounting from the runq substrate: pushed/shed/
  /// drained/stolen totals. After drain_and_stop(), pushed == drained ==
  /// RuntimeCore::admitted() and shed == shed() — asserted there, and
  /// reconciled against the wire counters by the net tests/benches.
  [[nodiscard]] runq::AdmissionLedger admission_ledger() const;
  /// Number of admission shards (== model cores).
  [[nodiscard]] std::size_t admission_shards() const;

  /// Live counters (thread-safe at any point in the server's life).
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Collected periodic snapshots / per-worker stats; call after
  /// drain_and_stop().
  [[nodiscard]] const std::vector<MetricsSnapshot>& snapshots() const;
  [[nodiscard]] const std::vector<WorkerStats>& worker_stats() const;

  /// The server-owned metrics registry ("qesd" prefix): live server
  /// instruments (queue depth, shed, replan-publish latency, power and
  /// energy gauges) plus RuntimeCore's end-of-run aggregates. Safe to
  /// render (to_prometheus()/to_json()) from any thread at any time.
  [[nodiscard]] const obs::Registry& registry() const { return registry_; }
  [[nodiscard]] obs::Registry& registry() { return registry_; }

  /// The bound scrape port, or -1 when the exporter is disabled. Valid
  /// after start().
  [[nodiscard]] int http_port() const;

  /// The bound wire-ingress port, or -1 when disabled. Valid after
  /// start().
  [[nodiscard]] int listen_port() const;

  /// The wire ingress (nullptr when disabled); exposed for tests that
  /// reconcile wire-level counters against the run statistics.
  [[nodiscard]] const net::Ingress* ingress() const { return ingress_.get(); }

  /// The hot-path telemetry shards (ServerShardSlot schema). Reading/
  /// folding is thread-safe at any time; the owning hot threads are the
  /// only writers.
  [[nodiscard]] const obs::ShardSet& shard_set() const { return *shards_; }
  [[nodiscard]] obs::ShardSet& shard_set() { return *shards_; }

  /// The black-box flight recorder (one ring per hot thread, same index
  /// mapping as the shard set). Safe to dump from any thread, including
  /// signal handlers (see obs/flight_recorder.hpp).
  [[nodiscard]] const obs::FlightRecorder& flight() const { return *flight_; }

  /// Trigger-tick heartbeat: bumped once per process_tick(). Feed it to
  /// an obs::StallWatchdog to get automatic flight dumps when the
  /// trigger thread wedges.
  [[nodiscard]] const std::atomic<std::uint64_t>& heartbeat() const {
    return heartbeat_;
  }

  /// Wall seconds since construction — the /statz window timebase.
  [[nodiscard]] double wall_elapsed_s() const;

  /// Copy of RuntimeCore's per-job energy/quality attribution aggregates
  /// (taken under the model lock; cheap — four doubles per class).
  [[nodiscard]] obs::EnergyAttribution attribution() const;

 private:
  friend class ServerIngressSink;

  void trigger_loop();
  void worker_loop(int core);
  void metrics_loop();
  void process_tick();
  /// IngressSink admission: per-item affine ring pushes with exact shed
  /// accounting (no allocation beyond a thread-local scratch's one-time
  /// growth).
  std::size_t ingress_admit(const net::IngressRequest* reqs,
                            std::size_t count);
  /// Forwards pending finalizations to the wire (trigger thread only).
  void forward_completions();
  void publish_plans();  // requires mu_
  void poke_trigger();
  void take_snapshot();
  /// Sleeps until `tp`, a plan generation other than `seen_gen`, or
  /// stop — lock-free chunked pacing (chunk = worker_slice_wall_ms).
  void wait_wall(VirtualClock::WallClock::time_point tp,
                 std::uint64_t seen_gen);

  ServerConfig cfg_;
  VirtualClock clock_;
  runq::ShardedAdmission<Request> admission_;

  // Declared before core_: the constructor points cfg_.model.registry at
  // it so RuntimeCore::finish() mirrors its aggregates here.
  obs::Registry registry_;

  mutable std::mutex mu_;  // guards core_
  RuntimeCore core_;
  // Scratch for process_tick / forward_completions (trigger thread only).
  std::vector<Request> admission_batch_;
  std::vector<JobCompletion> completions_scratch_;
  std::vector<net::Completion> wire_completions_;
  // finish() records into the registry, so it must run exactly once;
  // drain_and_stop() caches its result for repeat callers.
  bool final_stats_valid_ = false;
  RunStats final_stats_;

  // One seqlock plan cell per core (PlanCell is non-movable).
  std::vector<std::unique_ptr<runq::PlanCell>> plan_cells_;
  std::atomic<std::uint64_t> plan_gen_{0};
  /// C-state last published per core (trigger thread under mu_ only).
  /// process_tick() re-publishes when a core parked or woke without a
  /// replan, so workers always see the current state in their cells.
  std::vector<char> published_asleep_;
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> shed_{0};

  std::mutex trig_mu_;  // trigger thread's tick sleep
  std::condition_variable trig_cv_;
  // poked_ is stored outside trig_mu_ (pokers must stay lock-free); a
  // notify racing the trigger's wait can therefore be missed, costing at
  // most one tick_wall_ms of latency.
  std::atomic<bool> poked_{false};

  std::vector<std::atomic<JobId>> current_job_;
  std::vector<WorkerStats> worker_stats_;

  // Hot-path telemetry plane: wait-free shard cells + flight rings, one
  // per hot thread (workers, trigger, ingress). unique_ptr: both types
  // pin atomics and are non-movable.
  std::unique_ptr<obs::ShardSet> shards_;
  std::unique_ptr<obs::FlightRecorder> flight_;
  std::size_t trigger_shard_ = 0;       // == model cores
  std::size_t ingress_shard_base_ = 0;  // == model cores + 1
  std::atomic<std::size_t> ingress_slot_next_{0};
  std::atomic<std::uint64_t> heartbeat_{0};
  VirtualClock::WallClock::time_point start_wall_;

  // Hot/periodic instruments, resolved once (registry lookups take the
  // registry mutex — never on a per-request or per-tick path).
  obs::Counter* shed_counter_ = nullptr;
  obs::Counter* stolen_counter_ = nullptr;
  obs::Counter* plan_trunc_counter_ = nullptr;
  obs::Gauge* depth_gauge_ = nullptr;
  obs::Histogram* replan_hist_ = nullptr;
  std::vector<obs::Gauge*> ravg_gauges_;

  mutable std::mutex snap_mu_;  // guards snapshots_
  std::vector<MetricsSnapshot> snapshots_;

  std::vector<std::thread> threads_;
  // Scrape endpoint (nullptr when cfg_.http_port < 0). Its handlers read
  // only registry_, the trace ring, and snapshot() — all thread-safe —
  // so it stays answerable while the server drains; drain_and_stop() and
  // kill() stop it once the final statistics exist.
  std::unique_ptr<obs::HttpExporter> exporter_;
  // Wire request plane (nullptr when cfg_.listen_port < 0). Stays up
  // through the drain so buffered REPLY frames reach their clients;
  // stopped after the final completion flush. kill() drops undelivered
  // completions — replies die with the node.
  std::unique_ptr<net::IngressSink> ingress_sink_;
  std::unique_ptr<net::Ingress> ingress_;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace qes::runtime
