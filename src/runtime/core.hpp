// RuntimeCore: the deterministic heart of the qesd serving runtime.
//
// The live runtime must make the SAME decisions as the discrete-event
// simulator (DES = C-RR + WF + Online-QE on continuous C-DVFS, paper
// §IV-D) — that is what makes it trustworthy. To get there, everything
// that affects quality or energy lives in this single-threaded state
// machine: job admission, plan integration (volume + energy accounting),
// deadline expiry, the §IV-E triggers, and the replanning pipeline. The
// threaded server (server.hpp) drives it under one mutex from wall-clock
// time; the conformance harness (conformance.hpp) drives it in lockstep
// with the exact event sequence of sim::Engine and checks that quality
// and energy agree. Worker threads only *pace* execution against the
// published plans — they never touch this state, so the live and
// simulated runs share every arithmetic operation.
//
// Supported policy surface: the paper's default DES on homogeneous
// continuous C-DVFS cores (no discrete levels, ablations, or service
// classes — the simulator remains the tool for those studies).
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <vector>

#include "core/job.hpp"
#include "core/job_state.hpp"
#include "core/power.hpp"
#include "core/quality.hpp"
#include "core/schedule.hpp"
#include "obs/energy_ledger.hpp"
#include "obs/job_store.hpp"
#include "policy/crr.hpp"
#include "policy/des_planner.hpp"
#include "policy/world_view.hpp"
#include "sim/metrics.hpp"

namespace qes::obs {
class Registry;
class TraceRing;
}  // namespace qes::obs

namespace qes::runtime {

struct RuntimeConfig {
  int cores = 16;
  /// Total dynamic power budget H in watts (paper §V-B: 320 W).
  Watts power_budget = 320.0;
  PowerModel power_model = default_power_model();
  QualityFunction quality = QualityFunction::exponential(0.003);
  /// Grouped-scheduling triggers (§IV-E); semantics match EngineConfig.
  Time quantum_ms = 500.0;
  int counter_trigger = 8;
  bool idle_trigger = true;
  /// Hardware cap on any core's speed (GHz).
  Speed max_core_speed = std::numeric_limits<double>::infinity();
  /// Optional observability hooks (not owned). When set, finish()
  /// mirrors the run aggregates into `registry` under the "qesd" prefix,
  /// replan() records per-phase wall time into
  /// qes_replan_phase_ms{plane="runtime"}, and lifecycle events are
  /// pushed into `trace` (see src/obs/).
  obs::Registry* registry = nullptr;
  obs::TraceRing* trace = nullptr;
  /// Node index for the {node} label on the attribution families
  /// (qes_energy_joules_total etc.); the cluster stamps each member,
  /// standalone runs keep 0.
  int node_id = 0;
  /// When set, finalize() appends a JobCompletion per finalized job
  /// (abandoned jobs excluded) for drain_completions() — the hook the
  /// wire ingress uses to send REPLY frames. Off by default: lockstep
  /// conformance and the plain producer path never pay for it.
  bool record_completions = false;
};

/// One finalized job's outcome (only recorded when record_completions
/// is set). latency_ms is virtual time from release to finalization;
/// `tag` is the routing tag the job was submitted with.
struct JobCompletion {
  JobId id = 0;
  std::uint64_t tag = 0;
  bool satisfied = false;
  double quality = 0.0;
  Time latency_ms = 0.0;
};

/// Unserved remainder of a job pulled off a killed node, ready to be
/// re-submitted elsewhere (the new node stamps fresh release/deadline).
struct AbandonedJob {
  Work remaining = 0.0;
  bool partial_ok = true;
  double weight = 1.0;
};

/// Aggregate counters cheap enough to copy under a lock every metrics
/// tick. planned_power is the instantaneous dynamic power implied by the
/// installed plans at the current virtual time; WF guarantees it never
/// exceeds the budget H.
struct CoreCounters {
  Time now = 0.0;
  std::size_t admitted = 0;
  std::size_t waiting = 0;
  std::size_t assigned = 0;
  std::size_t finalized = 0;
  std::size_t satisfied = 0;
  double quality_sum = 0.0;
  Joules dynamic_energy = 0.0;
  Watts planned_power = 0.0;
  Watts peak_power = 0.0;
  std::size_t replans = 0;
  /// Sleep-state accounting (all zero unless the power model has a
  /// sleep C-state, except that finish() adds the closed-form static
  /// energy of a model without one).
  Joules static_energy = 0.0;
  Joules wake_energy = 0.0;
  std::size_t core_wakes = 0;
  std::size_t cores_asleep = 0;
  /// Job records still held: admitted minus released_jobs().
  std::size_t resident_jobs = 0;
};

class RuntimeCore {
 public:
  explicit RuntimeCore(RuntimeConfig config);

  // ---- admission ----

  /// Admits a job. Ids must be dense 1..n in admission order and
  /// (release, deadline) must be agreeable with previously admitted jobs
  /// — both hold automatically when the server stamps release/deadline
  /// at admission time. `tag` rides in the job's record to its
  /// JobCompletion (the wire ingress's reply token; 0 for none).
  void submit(const Job& job, std::uint64_t tag = 0);

  // ---- time (every mutation below expects monotone timestamps) ----

  /// Integrates all core plans from the current time to `t`, charging
  /// processed volume and dynamic energy segment by segment (power is
  /// constant between consecutive plan boundaries), finalizing jobs whose
  /// segments complete, and asserting the instantaneous power budget.
  /// Then finalizes jobs whose deadline has passed.
  void advance(Time t);

  /// Evaluates the §IV-E triggers at the current time: quantum (advances
  /// the quantum phase), counter (waiting >= threshold), and idle core.
  /// Returns true when a replan is due.
  [[nodiscard]] bool check_triggers();

  /// Runs the DES pipeline at the current time: C-RR distribution,
  /// budget-free per-core YDS, WF power split, and budget-bounded
  /// Online-QE planning with the rigid-job discard loop (§V-D). A replan
  /// with no job waiting, on the state the installed plans were planned
  /// from, keeps them when the planner certifies that its last outcome
  /// holds under the current H (DesPlanner::last_outcome_holds): they are
  /// what the pipeline would reinstall, bit for bit. It is still counted
  /// and traced.
  void replan();

  /// Final accounting: integrates idle time out to `end_time` (the last
  /// deadline), feeds the jobs the run has not yet released, and returns
  /// the run statistics, matching sim::Engine's RunStats field for
  /// field. All jobs must be finalized. Abandoned jobs (node kill) are
  /// excluded — they are accounted where they re-land.
  [[nodiscard]] RunStats finish(Time end_time);

  // ---- cluster hooks (src/cluster/) ----

  /// Replaces the power budget H (watts). Takes effect at the next
  /// replan(); callers that lower the budget must replan before the next
  /// advance() so installed plans never exceed the new bound.
  void set_power_budget(Watts budget);

  /// The budget-free power request: total dynamic power the per-core YDS
  /// schedules would draw right now if H were unlimited (DES step 2's
  /// `total_request`). This is the node's load signal to the cluster
  /// budget broker — when the allocated budget covers it, the node's
  /// plans are identical to the unconstrained ones. Reads no H, so it is
  /// recomputed only once the state generation has moved.
  [[nodiscard]] Watts power_request() const;

  /// Extracts every unfinalized job for re-dispatch after a node kill:
  /// jobs within completion tolerance are finalized normally (their
  /// quality is kept here); the rest are marked abandoned — finalized for
  /// bookkeeping, excluded from finish() — and returned with their
  /// remaining demand. Installed plans are cleared.
  [[nodiscard]] std::vector<AbandonedJob> abandon_unfinalized();

  // ---- observers ----

  [[nodiscard]] Time now() const { return now_; }
  [[nodiscard]] const RuntimeConfig& config() const { return cfg_; }
  [[nodiscard]] std::size_t admitted() const { return jobs_.size(); }
  [[nodiscard]] bool all_finalized() const {
    return finalized_count_ == jobs_.size();
  }
  /// One job's state; asserts it is still resident (not yet released
  /// behind the live window).
  [[nodiscard]] const JobState& job(JobId id) const;
  [[nodiscard]] const Schedule& plan(int core) const;

  /// Earliest deadline among admitted, unfinalized jobs (infinity when
  /// none) — the next expiry event.
  [[nodiscard]] Time earliest_live_deadline() const;

  /// Next plan-segment boundary across cores (infinity when all idle).
  [[nodiscard]] Time next_plan_event() const;

  /// Next quantum-trigger firing time (infinity when disabled).
  [[nodiscard]] Time next_quantum() const { return next_quantum_; }

  /// True when `core` is parked in the sleep C-state (always false
  /// without one in the power model). The server publishes this through
  /// each core's PlanCell so pacing workers see the state change.
  [[nodiscard]] bool core_asleep(int core) const;

  /// Deadline (== finalization bound) of the last admitted job, or the
  /// current time when nothing was admitted. Used as finish()'s horizon.
  [[nodiscard]] Time horizon() const;

  [[nodiscard]] CoreCounters counters() const;

  /// counters().planned_power alone: the dynamic power the installed
  /// plans draw at now() (the cluster samples it at every broker tick).
  [[nodiscard]] Watts planned_power_now() const;

  /// Admitted jobs not yet finalized (waiting + assigned): the
  /// dispatcher's depth signal, read without evaluating planned power.
  [[nodiscard]] std::size_t live_jobs() const {
    return jobs_.size() - finalized_count_;
  }

  /// Job records freed so far: whole chunks behind the live window,
  /// already fed to the run accumulator.
  [[nodiscard]] std::size_t released_jobs() const { return jobs_.released(); }

  /// Per-class energy/quality attribution, fed at finalization (class
  /// "abandoned" from abandon_unfinalized()), with static, wake and
  /// residency fed per substep. Mirrors into cfg_.registry when set;
  /// Σ classes reconciles with RunStats.dynamic_energy within fp
  /// round-off.
  [[nodiscard]] const obs::EnergyAttribution& attribution() const {
    return ledger_.attribution();
  }

  /// Moves every completion recorded since the last call into `out`
  /// (appending, finalization order). Empty unless record_completions.
  void drain_completions(std::vector<JobCompletion>& out);

 private:
  struct CoreState {
    Schedule plan;
    std::size_t next_seg = 0;
    /// a·s^β of plan[next_seg], 0 once the plan is exhausted, and the
    /// speed it was evaluated at (0 when exhausted); refreshed by
    /// refresh_seg_power() wherever next_seg or the plan changes.
    Watts seg_power = 0.0;
    Speed seg_speed = 0.0;
    std::deque<JobId> queue;     // live assigned jobs, arrival order
    bool sleep_after = false;    // park when the current plan exhausts
    bool asleep = false;         // parked in the sleep C-state
  };

  JobState& state(JobId id);
  void assign_to_core(JobId id, int core);
  void finalize(JobId id);
  void expire_due_jobs();
  /// Installs `plan` on `core` by swapping it with the core's current
  /// plan, which `plan` holds on return.
  void set_core_plan(int core, Schedule& plan);
  /// Re-reads c.seg_power from the segment c.next_seg now names.
  void refresh_seg_power(CoreState& c) const;
  /// Reduces the live per-core queues to the planner's WorldView
  /// (refilling view_'s buffers in place — no steady-state allocation).
  void build_view() const;
  [[nodiscard]] bool core_idle(int core) const;

  RuntimeConfig cfg_;
  CumulativeRoundRobin crr_;
  // The shared DES planner kernel (src/policy/), heap-held so
  // RuntimeCore stays movable (the cluster lockstep keeps cores in a
  // vector); the planner's phase profiler pins a mutex and its histogram
  // cache. All plan construction — budget-free YDS, WF escalation,
  // budget-bounded Online-QE, the §V-D rigid loop — happens in there;
  // this class only owns state and applies outcomes.
  std::unique_ptr<policy::DesPlanner> planner_;
  // Scratch snapshot + outcome, reused across replans. Mutable because
  // power_request() (a const observer in the cluster-broker protocol)
  // refills the view to compute the budget-free demand signal. That
  // leaves each core's step 2 in the planner's memo, so a replan at the
  // same instant (the one a broker budget change forces) reuses it for
  // every core C-RR does not hand new work to.
  mutable policy::WorldView view_;
  policy::PlanOutcome plan_out_;
  // replan()'s step-1 scratch: the waiting jobs and their C-RR targets.
  std::vector<JobId> replan_waiting_;
  std::vector<std::size_t> replan_targets_;
  std::vector<JobCompletion> completions_;  // pending drain_completions()
  obs::EnergyLedger ledger_;  // energy, C-states and attribution
  /// Job records (index = id - 1) and the "qesd" run accumulator; the
  /// dead prefix is fed and freed at the end of every advance().
  obs::JobStore jobs_;
  std::vector<CoreState> cores_;
  std::vector<JobId> waiting_;   // arrived, unassigned, arrival order
  std::size_t first_live_ = 0;
  // The last admission's window (the agreeable-deadline check and
  // horizon() read it; its record may already be released).
  Time last_release_ = 0.0;
  Time last_deadline_ = 0.0;
  std::size_t finalized_count_ = 0;
  std::size_t satisfied_count_ = 0;
  double quality_sum_ = 0.0;
  Time now_ = 0.0;
  Time next_quantum_;
  std::size_t replans_ = 0;
  // State generation: bumped by every member that changes what
  // build_view() reads — the clock, a core queue or a processed volume
  // (advance, assign_to_core, finalize, abandon_unfinalized). submit()
  // leaves it, since its job waits outside the view until assigned, and
  // so does set_power_budget(): H is the planner certificate's to check.
  std::uint64_t generation_ = 1;
  // The generation the last replan's view was built at (0: none yet).
  std::uint64_t plan_generation_ = 0;
  // power_request()'s last value and the generation it was computed at.
  mutable std::uint64_t request_generation_ = 0;
  mutable Watts request_ = 0.0;
};

}  // namespace qes::runtime
