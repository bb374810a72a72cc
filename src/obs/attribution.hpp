// Per-job energy/quality attribution: where the joules buy quality.
//
// Both integration loops (sim::Engine::advance_to and
// runtime::RuntimeCore::advance) charge dynamic power only for cores
// with an active plan segment, so integrating a · s^β over the segments
// a job actually ran at partitions the run's dynamic energy across jobs
// (plus an idle-power residual for the S-DVFS/No-DVFS architectures).
// Both planes keep that integral per job (JobState::energy_j) and feed
// it here at finalization, bucketed by job class — "partial"
// (partial_ok) vs "rigid" (all-or-nothing), with "abandoned" for
// node-kill orphans and "idle" for non-job power.
//
// Mirrored registry families (the SAME names in sim, runtime, and
// cluster — the node label separates cluster nodes):
//
//   qes_energy_joules_total{class,component,node}   counter
//       component="dynamic" carries the per-class job split
//       (partial|rigid|abandoned|idle); component="static" and
//       component="wake" are classless run-level components fed by
//       on_static()/on_wake(), so Σ over the whole family is the
//       machine's total energy (dynamic + static + wake).
//   qes_quality_sum{class,node}            counter  (partial|rigid)
//   qes_attributed_jobs_total{class,node}  counter  (partial|rigid|abandoned)
//   qes_quality_per_joule{class,node}      gauge    (partial|rigid|all)
//   qes_core_state_residency_ms_total{state,node}  counter
//       core-milliseconds per C-state (active|active_idle|sleep), fed as
//       deltas by on_residency(); only populated when the power model
//       has a sleep state.
//
// so quality-per-joule is a first-class scraped metric while the run is
// live. Reconciliation: the engines accumulate run-level energy as
// joules(Σ power, dt) while attribution accumulates joules(power_i, dt)
// per job — the same terms grouped differently — so totals agree with
// RunStats.dynamic_energy within fp round-off (1e-9 relative; asserted
// by tests/obs_attribution_test and bench/e2e_latency), never bitwise.
// The static, wake and residency totals are fed by the plane's
// obs::EnergyLedger (energy_ledger.hpp) as they accrue, and are the
// ledger's own accumulators: they equal the RunStats fields bit for
// bit, so dynamic+static+wake reconciles with RunStats.total_energy()
// to the same bound. The run-level sum's op order is golden-pinned and
// NOT changed by this layer.
//
// Thread model: a single writer (the sim main loop / the runtime
// trigger thread under the model lock) calls the on_*() hooks; the
// mirrored instruments are read concurrently by scrape threads (Counter
// add is atomic). The plain accessors are for the writer/post-run side.
#pragma once

#include <cstdint>
#include <string>

#include "core/time.hpp"

namespace qes::obs {

class Counter;
class Gauge;
class Registry;

class EnergyAttribution {
 public:
  enum Class : int { kPartial = 0, kRigid = 1, kAbandoned = 2, kIdle = 3 };
  static constexpr int kClasses = 4;

  /// `registry` may be nullptr (totals only, no mirrored instruments);
  /// `node` becomes the node="N" label on every family.
  explicit EnergyAttribution(Registry* registry = nullptr, int node = 0);

  /// One finalized job with its integrated execution energy.
  void on_job(bool partial_ok, Joules energy_j, double quality);

  /// A node-kill orphan: its energy was spent here, its quality is
  /// credited wherever it re-lands.
  void on_abandoned(Joules energy_j);

  /// Idle-power energy (S-DVFS/No-DVFS): attributable to no job.
  void on_idle(Joules energy_j);

  /// Leakage energy (component="static"): the b/sleep_power draw
  /// integrated over the run, independent of what executed.
  void on_static(Joules energy_j);

  /// Wake transition energy (component="wake"): the fixed cost paid
  /// each time a parked core is re-activated.
  void on_wake(Joules energy_j);

  /// C-state residency deltas in core-milliseconds. Cumulative via the
  /// mirrored counters; also kept locally for post-run reads.
  enum State : int { kActive = 0, kActiveIdle = 1, kSleep = 2 };
  static constexpr int kStates = 3;
  void on_residency(Time active_ms, Time active_idle_ms, Time sleep_ms);

  [[nodiscard]] Joules energy(Class c) const { return energy_[c]; }
  [[nodiscard]] double quality(Class c) const { return quality_[c]; }
  [[nodiscard]] std::uint64_t jobs(Class c) const { return jobs_[c]; }
  [[nodiscard]] Joules static_energy() const { return static_energy_; }
  [[nodiscard]] Joules wake_energy() const { return wake_energy_; }
  [[nodiscard]] Time residency_ms(State s) const { return residency_[s]; }

  /// Σ over every dynamic class (including idle + abandoned):
  /// reconciles with RunStats.dynamic_energy to ~1e-9 relative once all
  /// jobs finalized. Static/wake components are NOT included; see
  /// energy_grand_total().
  [[nodiscard]] Joules energy_total() const;
  /// dynamic classes + static + wake: reconciles with
  /// RunStats.total_energy().
  [[nodiscard]] Joules energy_grand_total() const;
  [[nodiscard]] double quality_total() const;

  /// quality / energy, 0 when no energy was attributed.
  [[nodiscard]] static double quality_per_joule(double quality,
                                                Joules energy);

 private:
  void mirror(Class c);

  double energy_[kClasses] = {};
  double quality_[kClasses] = {};
  std::uint64_t jobs_[kClasses] = {};
  Joules static_energy_ = 0.0;
  Joules wake_energy_ = 0.0;
  Time residency_[kStates] = {};

  Counter* energy_c_[kClasses] = {};
  Counter* static_c_ = nullptr;
  Counter* wake_c_ = nullptr;
  Counter* residency_c_[kStates] = {};
  Counter* quality_c_[2] = {};  // partial, rigid
  Counter* jobs_c_[3] = {};     // partial, rigid, abandoned
  Gauge* qpj_g_[2] = {};        // partial, rigid
  Gauge* qpj_all_ = nullptr;
};

}  // namespace qes::obs
