// Discrete-event simulation engine for multicore scheduling under a
// power budget (paper §V).
//
// The engine is architecture-agnostic: a SchedulingPolicy installs, per
// core, a piecewise-constant (job, speed) plan plus an "idle power" that
// the core burns when no segment is active (0 for core-level DVFS; the
// common chip power for S-DVFS; the fixed full power for No-DVFS). The
// engine advances time event by event — arrivals, trigger firings,
// segment boundaries, deadline expiries — integrating processed volumes
// and energy exactly (power is constant between consecutive events) and
// asserting the instantaneous power cap.
//
// The pending-event set is a bucketed calendar queue (sim/event_queue.hpp)
// holding one entry per event SOURCE — the next arrival, the next quantum
// firing, the earliest live deadline, the next budget step, and one wake
// per core with a pending segment boundary. Sources are monotone, so a
// small cache of what was last pushed keeps the queue population bounded
// by O(cores); entries invalidated by state changes (a replan replacing a
// plan, a deadline expiring early) are detected lazily at pop time and
// discarded without running an iteration. Together with capacity-reusing
// job/plan containers this makes the steady-state event loop allocation
// free (gated by bench/sim_event_core, a ctest); the result is bitwise
// identical to the legacy scan-all-sources loop
// (tests/sim_engine_golden_test).
//
// The substep contract (advance_to). Between two events time advances
// in substeps that end at the earliest segment boundary of any core, so
// every core's power is constant within one. Each core's pending
// segment plan[next_seg] is mirrored in a dense PendingSeg row (t0, t1,
// speed, cached a·s^β, JobState*, idle power), refreshed at exactly four
// points: set_core_plan, unassign_from_core, the completion sweep, and
// set_core_idle_power. A substep then costs:
//   1. one pass over the live cores in ascending index order that
//      integrates the substep — one `processed += speed·dt` and one
//      `energy_j += joules(power, dt)` per active core, the power sum in
//      ascending order — and collects the cores due at the new now_
//      (segment ends by it, or plan exhausted), while taking the minimum
//      next boundary of the others; the run-level energy of the substep
//      then goes through one obs::EnergyLedger::integrate call;
//   2. a sweep over the due cores only, in ascending order, that
//      completes segments and finalizes jobs, parks race-to-idle cores,
//      drops spent cores from the live list and folds their new
//      boundaries into the carried one.
// Every core is integrated before any completes, so the trace logs each
// Exec at the old now_ ahead of every Finalize at the new one, and the
// attribution sums finalizations in ascending core order. The next
// boundary is carried to the next substep; it is rescanned only after a
// plan changes outside advance_to or after now_ moves at the end of a
// call. The increments stay per substep, not deferred to segment ends:
// re-grouping the sums would change RunStats bits.
//
// Job lifecycle: Waiting (arrived, in the global queue) -> Assigned (on a
// core, never migrates) -> Finalized. A job finalizes when it completes,
// when its deadline passes, when the policy discards it, or — under the
// paper's execution model — when its core finishes the job's planned
// partial volume and moves past it ("discarded due to partial
// evaluation", §IV-B). Setting resume_passed_jobs keeps passed-over jobs
// alive for re-planning instead (the ablation model).
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/assert.hpp"
#include "core/job.hpp"
#include "core/job_state.hpp"
#include "core/job_stream.hpp"
#include "core/power.hpp"
#include "core/quality.hpp"
#include "core/schedule.hpp"
#include "obs/energy_ledger.hpp"
#include "obs/job_store.hpp"
#include "sim/event_queue.hpp"
#include "sim/metrics.hpp"

namespace qes::obs {
class Registry;
class TraceRing;
}  // namespace qes::obs

namespace qes {

/// A scheduled change of the power budget H (chaos / brownout
/// scenarios). The engine applies the step when simulated time reaches
/// `at` and fires a replan so the policy can re-fit its plans to the new
/// budget.
struct EngineBudgetStep {
  Time at = 0.0;
  Watts budget = 0.0;
};

struct EngineConfig {
  int cores = 16;
  /// Total *dynamic* power budget H in watts (§V-B: 320 W).
  Watts power_budget = 320.0;
  PowerModel power_model = default_power_model();
  QualityFunction quality = QualityFunction::exponential(0.003);
  /// Grouped-scheduling triggers (§IV-E). quantum_ms <= 0 disables the
  /// quantum trigger; counter_trigger <= 0 disables the counter trigger.
  Time quantum_ms = 500.0;
  int counter_trigger = 8;
  bool idle_trigger = true;
  /// Hardware cap on any core's speed (GHz); infinity = power-bound only.
  Speed max_core_speed = std::numeric_limits<double>::infinity();
  /// Heterogeneous (big.LITTLE) servers: per-core speed caps overriding
  /// max_core_speed when non-empty (size must equal `cores`; extension).
  std::vector<Speed> per_core_max_speed;

  /// Effective hardware speed cap of core `i`.
  [[nodiscard]] Speed core_speed_cap(int i) const {
    QES_ASSERT_MSG(i >= 0 && i < cores, "core index out of range");
    if (per_core_max_speed.empty()) return max_core_speed;
    QES_ASSERT_MSG(
        per_core_max_speed.size() == static_cast<std::size_t>(cores),
        "per_core_max_speed must have one entry per core");
    return per_core_max_speed[static_cast<std::size_t>(i)];
  }
  /// Keep partially executed, passed-over jobs alive for re-planning
  /// (ablation; the paper discards them).
  bool resume_passed_jobs = false;
  /// Record the executed per-core schedules in the RunResult (needed by
  /// the validation replay; costs memory on long runs).
  bool record_execution = true;
  /// Record each replan instant in RunResult::replan_times (needed by
  /// the validation replay; costs memory on long runs — the replans
  /// COUNT in RunStats is kept either way).
  bool record_replan_times = true;
  /// Keep the full per-job state table resident and copy it into
  /// RunResult::jobs at the end (needed by the validation replay and the
  /// golden tests). Turning it off lets the engine release the dead
  /// prefix of job state chunk by chunk as the live window advances —
  /// this is what bounds RSS on multi-million-job streaming runs — and
  /// leaves RunResult::jobs empty.
  bool record_job_states = true;
  /// Scheduled power-budget changes, sorted ascending by `at`. Empty
  /// (the default) keeps H constant and leaves the run bit-for-bit
  /// unchanged. Steps due after the last job finalizes never apply.
  std::vector<EngineBudgetStep> budget_steps;
  /// Optional observability hooks (not owned). When set, end-of-run
  /// aggregates are mirrored into `registry` under the "qes_sim" prefix
  /// and lifecycle events are pushed into `trace` (see src/obs/).
  obs::Registry* registry = nullptr;
  obs::TraceRing* trace = nullptr;
};

class Engine;

/// Strategy invoked at every trigger firing to (re)plan the system.
class SchedulingPolicy {
 public:
  virtual ~SchedulingPolicy() = default;
  virtual void replan(Engine& engine) = 0;
  [[nodiscard]] virtual std::string name() const = 0;
};

struct RunResult {
  RunStats stats;
  /// Actually executed segments per core (empty if !record_execution).
  std::vector<Schedule> executed;
  /// Times at which the policy was invoked (empty if
  /// !record_replan_times).
  std::vector<Time> replan_times;
  /// Final per-job states, in job-id order.
  std::vector<JobState> jobs;
};

class Engine {
 public:
  /// Jobs must have dense ids 1..n in arrival order (as produced by the
  /// workload generator) and agreeable deadlines.
  Engine(EngineConfig config, std::vector<Job> jobs,
         std::unique_ptr<SchedulingPolicy> policy);

  /// Streaming variant: jobs are pulled from `stream` one arrival ahead
  /// of simulated time instead of being materialized up front (the
  /// JobStream contract — dense ids, arrival order, agreeable deadlines
  /// — is asserted per pull). Statistics are bitwise identical to the
  /// vector constructor fed the drained stream; combine with
  /// `record_job_states = false` to run multi-million-job workloads in
  /// O(live window) memory.
  Engine(EngineConfig config, std::unique_ptr<JobStream> stream,
         std::unique_ptr<SchedulingPolicy> policy);

  ~Engine();

  /// Runs the simulation to completion (all jobs finalized) and returns
  /// the collected statistics.
  [[nodiscard]] RunResult run();

  // ---- policy-facing API (valid during SchedulingPolicy::replan) ----

  [[nodiscard]] Time now() const { return now_; }
  [[nodiscard]] const EngineConfig& config() const { return cfg_; }
  [[nodiscard]] int cores() const { return cfg_.cores; }

  /// Calendar-queue entries popped so far (valid + lazily discarded);
  /// the event-rate denominator for throughput reporting.
  [[nodiscard]] std::uint64_t events_processed() const {
    return events_processed_;
  }

  /// Job-state entries freed so far: whole chunks behind the live
  /// window when record_job_states is off; with it on, only run()'s
  /// copy into RunResult::jobs frees them.
  [[nodiscard]] std::size_t released_jobs() const { return jobs_.released(); }

  /// Waiting (arrived, unassigned, unexpired) jobs in arrival order.
  [[nodiscard]] std::span<const JobId> waiting() const { return waiting_; }

  /// Live jobs assigned to `core`, in arrival (== deadline) order.
  [[nodiscard]] std::span<const JobId> assigned(int core) const;

  /// Read one job's state.
  [[nodiscard]] const JobState& job(JobId id) const;

  /// True when the core has exhausted its current plan.
  [[nodiscard]] bool core_idle(int core) const;

  /// Move a waiting job onto a core (C-RR / baseline pick). The job must
  /// currently be waiting.
  void assign_to_core(JobId id, int core);

  /// Finalize a job right now with its accumulated volume (zero quality
  /// if the job does not support partial evaluation and is incomplete).
  void discard_job(JobId id);

  /// Return an assigned but UNSTARTED job to the waiting queue (used by
  /// the rebalancing ablation; the paper's DES never migrates). Clears
  /// the core's plan — the policy must install a fresh one.
  void unassign_from_core(JobId id);

  /// Replace the core's plan from now() onward. Segments must start at
  /// or after now(), reference live jobs assigned to this core, and
  /// respect their windows. The plan is copied into a capacity-reusing
  /// slot, so callers may keep (and refill) their own Schedule buffer.
  void set_core_plan(int core, const Schedule& plan);

  /// Dynamic power the core burns when no segment is active (until the
  /// next replan that changes it).
  void set_core_idle_power(int core, Watts watts);

  /// Arm (or disarm) the sleep transition at the end of the core's
  /// current plan: when the last installed segment finishes, the core
  /// parks into the power model's sleep C-state instead of idling at
  /// the active-idle leakage b. A parked core stays asleep for free
  /// across replans that leave it empty; installing a non-empty plan
  /// wakes it and charges wake_energy_j once. No-op unless the power
  /// model has a sleep state.
  void set_core_sleep(int core, bool sleep_after);

  /// Per-class energy/quality attribution, fed at finalization, with
  /// static, wake and residency fed per substep (idle power lands in the
  /// "idle" class when run() completes). Mirrors into cfg_.registry when
  /// set; Σ classes reconciles with RunStats.dynamic_energy within fp
  /// round-off.
  [[nodiscard]] const obs::EnergyAttribution& attribution() const {
    return ledger_.attribution();
  }

 private:
  struct CoreRuntime {
    Schedule plan;
    std::size_t next_seg = 0;
    std::vector<JobId> queue;  // live assigned jobs, arrival (== id) order
    std::uint64_t wake_gen = 0;  // bumping it invalidates queued wakes
    bool dirty = false;          // wake candidate must be re-armed
    bool in_live = false;        // member of live_
    bool sleep_after = false;    // park when the current plan exhausts
    bool asleep = false;         // parked in the sleep C-state
  };

  static constexpr Time kNever = std::numeric_limits<Time>::infinity();

  /// Dense copy of one core's pending segment plan[next_seg] plus its
  /// idle power: everything the substep pass reads, in one row. An
  /// exhausted plan reads t0 = t1 = kNever and job = nullptr.
  struct PendingSeg {
    Time t0 = kNever;
    Time t1 = kNever;
    Speed speed = 0.0;
    /// dynamic_power(speed), evaluated at the segment's first active
    /// substep (negative until then) — the same double every substep,
    /// so sums stay bitwise identical.
    Watts power_w = -1.0;
    JobState* job = nullptr;  // resident: the dead-prefix floor keeps it
    Watts idle_w = 0.0;       // burned while no segment is active
  };

  /// One calendar-queue entry. Validity is re-checked at pop against the
  /// current state; stale entries are discarded without running an event
  /// iteration.
  struct Ev {
    enum class Kind : std::uint8_t {
      Arrival,     // idx = arrival index; valid while idx == next_arrival_
      Quantum,     // valid while its time still equals next_quantum_
      Deadline,    // idx = job index; valid while idx == first_live_
      CoreWake,    // core's next segment boundary; idx = wake generation
      BudgetStep,  // idx = step index; valid while idx == next_budget_step_
    };
    Kind kind = Kind::Arrival;
    std::uint32_t core = 0;
    std::uint64_t idx = 0;
  };

  /// Shared constructor tail: validates the config and sets up cores.
  void init_runtime();
  JobState& state(JobId id);
  void advance_to(Time t);
  /// Re-reads core `core`'s pending segment into pending_.
  void load_pending(int core);
  /// Records / traces one active core's execution over [t0, t1).
  void log_exec(int core, const PendingSeg& p, Time t0, Time t1);
  /// Completes the segments of the due cores at now_ (the sweep half of
  /// a substep) and returns the earliest next boundary among them.
  Time complete_due_cores();
  void finalize(JobId id);
  void expire_due_jobs();
  /// Re-arms queue entries for sources whose candidate time changed
  /// since the last call (push caches keep one entry per source).
  void refresh_events();
  void mark_dirty(int core);
  void enter_live(int core);
  /// Admit the buffered stream arrival (asserting the JobStream
  /// contract) and pull the next one.
  void admit_streamed_arrival();
  [[nodiscard]] bool arrivals_pending() const {
    return stream_ != nullptr ? pending_arrival_.has_value()
                              : next_arrival_ < jobs_.size();
  }
  [[nodiscard]] Time next_arrival_release() const {
    return stream_ != nullptr ? pending_arrival_->release
                              : jobs_[next_arrival_].job.release;
  }
  /// A core's next boundary seen from time `t`: the pending segment's
  /// start if still ahead, else its end (kNever when the plan is
  /// exhausted).
  [[nodiscard]] static Time boundary_after(const PendingSeg& p, Time t) {
    return p.t0 > t + kTimeEps ? p.t0 : p.t1;
  }
  /// A live core is due at `t` when its pending segment ends by `t` or
  /// its plan is exhausted (it may park or leave live_).
  [[nodiscard]] static bool due_at(const PendingSeg& p, Time t) {
    return p.job == nullptr || p.t1 <= t + kTimeEps;
  }
  [[nodiscard]] bool all_finalized() const {
    return finalized_count_ == jobs_.size() && !arrivals_pending();
  }

  EngineConfig cfg_;
  std::unique_ptr<SchedulingPolicy> policy_;
  std::unique_ptr<JobStream> stream_;  // null in vector mode
  std::optional<Job> pending_arrival_;  // one-arrival lookahead (stream mode)
  /// Job state (index = id - 1) and the run accumulator it feeds; the
  /// dead prefix is fed and freed as the live window advances unless
  /// record_job_states keeps the whole table for RunResult::jobs.
  obs::JobStore jobs_;
  std::vector<CoreRuntime> cores_;
  std::vector<JobId> waiting_;
  std::size_t next_arrival_ = 0;   // index into jobs_ (arrival order)
  std::size_t first_live_ = 0;     // earliest possibly-unfinalized job
  std::size_t next_budget_step_ = 0;
  std::size_t finalized_count_ = 0;
  std::size_t replan_count_ = 0;
  std::uint64_t events_processed_ = 0;
  Time now_ = 0.0;
  Time next_quantum_ = 0.0;
  /// Latest deadline seen so far; with agreeable deadlines this is the
  /// run's final deadline once every arrival is in (tracked
  /// incrementally because streamed prefix state may be released).
  Time final_deadline_ = 0.0;
  Time last_release_ = 0.0;  // stream-contract monotonicity check
  obs::EnergyLedger ledger_;  // energy, C-states and attribution
  sim::CalendarQueue<Ev> events_{8.0, 256};
  /// Cores with pending segments or positive idle power, ascending, so
  /// power summation keeps the legacy all-cores index order (skipped
  /// cores contribute an exact +0.0).
  std::vector<int> live_;
  std::vector<PendingSeg> pending_;  // index = core
  /// Cores the current substep's sweep visits, ascending (reserved to
  /// the core count, so the loop never allocates).
  std::vector<int> due_;
  /// Earliest boundary over live_ at now_, carried between substeps
  /// while boundary_valid_.
  Time next_boundary_ = kNever;
  bool boundary_valid_ = false;
  std::vector<int> dirty_cores_;
  // Last pushed value per monotone event source (one entry outstanding).
  std::size_t pushed_arrival_ = SIZE_MAX;
  std::size_t pushed_deadline_ = SIZE_MAX;
  std::size_t pushed_budget_ = SIZE_MAX;
  Time pushed_quantum_ = -1.0;
  RunResult result_;
};

}  // namespace qes
