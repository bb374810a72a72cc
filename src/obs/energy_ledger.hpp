// EnergyLedger: the one place a plane accounts energy (∫P dt under the
// budget H) and its cores' sleep C-states (Bampis et al.,
// arXiv:1111.3398). sim::Engine and runtime::RuntimeCore each hold one
// and call no other energy code: integrate() once per substep, wake() on
// a non-empty plan install, park() when a plan armed for race-to-idle
// runs out, finish() at the end of the run.
//
// Static power is the substep integral of b·(m − asleep) +
// sleep_power·asleep with a sleep state, else the closed form
// m·b·end_time. The ledger owns the plane's EnergyAttribution and feeds
// static, wake and residency into it as they accrue, so a mid-run scrape
// reconciles with finish(); those attribution totals are the ledger's
// accumulators, and each takes the same adds in the same order as the
// planes' former private copies, so RunStats stays bitwise.
#pragma once

#include <algorithm>
#include <cstddef>

#include "core/assert.hpp"
#include "core/power.hpp"
#include "core/time.hpp"
#include "obs/attribution.hpp"
#include "obs/run_accumulator.hpp"
#include "sim/metrics.hpp"

namespace qes::obs {

class EnergyLedger {
 public:
  EnergyLedger() = default;
  /// `cores` is the plane's core count m; `registry` (may be nullptr)
  /// and `node` label the attribution families.
  EnergyLedger(const PowerModel& pm, int cores, Registry* registry, int node)
      : pm_(pm), m_(static_cast<double>(cores)), attribution_(registry, node) {}

  /// One substep of `dt` ms at `total_power` W of dynamic power, of
  /// which `idle_w` is idle power (S-DVFS/No-DVFS cores with no active
  /// segment); `active_n` cores execute a segment.
  void integrate(Watts total_power, Watts idle_w, int active_n, Time dt,
                 Watts budget) {
    QES_ASSERT_MSG(total_power <= budget * (1.0 + 1e-6) + 1e-6,
                   "instantaneous power exceeded the budget");
    if (idle_w > 0.0) idle_energy_ += joules(idle_w, dt);
    dynamic_energy_ += joules(total_power, dt);
    peak_power_ = std::max(peak_power_, total_power);
    if (!pm_.has_sleep()) return;
    // The asleep count changes only between substeps (park() in the
    // completion sweep, wake() at installs), so the draw is constant.
    const double asleep = static_cast<double>(asleep_);
    const double active = static_cast<double>(active_n);
    attribution_.on_static(
        joules(pm_.b * (m_ - asleep) + pm_.sleep_power * asleep, dt));
    attribution_.on_residency(active * dt, (m_ - asleep - active) * dt,
                              asleep * dt);
  }

  /// A non-empty plan lands on a core: a parked core wakes and pays the
  /// transition once. An awake core is left alone.
  void wake(bool& asleep) {
    if (!asleep) return;
    asleep = false;
    --asleep_;
    ++wakes_;
    attribution_.on_wake(pm_.wake_energy_j);
  }

  /// A plan armed for race-to-idle ran out: the core parks (once).
  void park(bool& asleep) {
    if (asleep) return;
    asleep = true;
    ++asleep_;
  }

  /// Folds the run's energy figures into `acc`'s RunStats over
  /// [0, end_time]: idle power to its own attribution class (it bought
  /// no job's quality), static energy (integral or closed form), and the
  /// C-state fields.
  [[nodiscard]] RunStats finish(RunAccumulator& acc, Time end_time,
                                std::size_t replans) {
    attribution_.on_idle(idle_energy_);
    if (!pm_.has_sleep()) {
      attribution_.on_static(m_ * pm_.b * end_time / 1000.0);
    }
    RunStats s = acc.finish(dynamic_energy_, attribution_.static_energy(),
                            peak_power_, end_time, replans);
    s.wake_energy = attribution_.wake_energy();
    s.core_wakes = wakes_;
    s.active_ms = attribution_.residency_ms(EnergyAttribution::kActive);
    s.active_idle_ms =
        attribution_.residency_ms(EnergyAttribution::kActiveIdle);
    s.sleep_ms = attribution_.residency_ms(EnergyAttribution::kSleep);
    return s;
  }

  [[nodiscard]] bool sleep_mode() const { return pm_.has_sleep(); }
  [[nodiscard]] Joules dynamic_energy() const { return dynamic_energy_; }
  [[nodiscard]] Watts peak_power() const { return peak_power_; }
  [[nodiscard]] std::size_t wakes() const { return wakes_; }
  [[nodiscard]] int asleep() const { return asleep_; }
  [[nodiscard]] const EnergyAttribution& attribution() const {
    return attribution_;
  }
  [[nodiscard]] EnergyAttribution& attribution() { return attribution_; }

 private:
  PowerModel pm_;
  double m_ = 0.0;  // core count
  int asleep_ = 0;
  std::size_t wakes_ = 0;
  Joules dynamic_energy_ = 0.0;
  Joules idle_energy_ = 0.0;
  Watts peak_power_ = 0.0;
  EnergyAttribution attribution_;
};

}  // namespace qes::obs
