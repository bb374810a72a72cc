#include "runtime/conformance.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "core/assert.hpp"
#include "multicore/des_scheduler.hpp"
#include "sim/engine.hpp"

namespace qes::runtime {

double ConformanceResult::quality_abs_diff() const {
  return std::fabs(sim.total_quality - runtime.total_quality);
}

double ConformanceResult::energy_rel_diff() const {
  const double scale = std::max(1e-12, std::fabs(sim.dynamic_energy));
  return std::fabs(sim.dynamic_energy - runtime.dynamic_energy) / scale;
}

namespace {

/// run_lockstep's event loop over a caller-owned core.
RunStats drive_lockstep(RuntimeCore& core, std::vector<Job> jobs) {
  const RuntimeConfig& config = core.config();
  sort_by_release(jobs);
  QES_ASSERT_MSG(deadlines_agreeable(jobs),
                 "lockstep replay requires agreeable deadlines");
  if (jobs.empty()) return core.finish(0.0);

  const Time final_deadline = jobs.back().deadline;
  const std::size_t n = jobs.size();
  std::size_t next = 0;

  while (next < n || !core.all_finalized()) {
    // Next event: arrival, quantum firing, earliest live deadline, or the
    // next segment boundary on any core (sim::Engine's event menu).
    Time t = std::numeric_limits<double>::infinity();
    if (next < n) t = std::min(t, jobs[next].release);
    if (config.quantum_ms > 0.0) t = std::min(t, core.next_quantum());
    t = std::min(t, core.earliest_live_deadline());
    t = std::min(t, core.next_plan_event());
    QES_ASSERT_MSG(std::isfinite(t), "event loop stalled with live jobs");

    core.advance(std::max(t, core.now()));
    while (next < n && jobs[next].release <= core.now() + kTimeEps) {
      core.submit(jobs[next]);
      ++next;
    }
    if (core.check_triggers()) core.replan();
  }
  return core.finish(final_deadline);
}

}  // namespace

RunStats run_lockstep(const RuntimeConfig& config, std::vector<Job> jobs) {
  RuntimeCore core(config);
  return drive_lockstep(core, std::move(jobs));
}

ConformanceResult run_conformance(const RuntimeConfig& config,
                                  std::vector<Job> jobs) {
  ConformanceResult out;

  EngineConfig ec;
  ec.cores = config.cores;
  ec.power_budget = config.power_budget;
  ec.power_model = config.power_model;
  ec.quality = config.quality;
  ec.quantum_ms = config.quantum_ms;
  ec.counter_trigger = config.counter_trigger;
  ec.idle_trigger = config.idle_trigger;
  ec.max_core_speed = config.max_core_speed;
  ec.record_execution = false;
  ec.record_replan_times = false;
  ec.record_job_states = false;  // release behind the window, as qesd does
  Engine engine(ec, jobs, make_des_policy({.arch = Architecture::CDVFS}));
  out.sim = engine.run().stats;
  out.sim_released = engine.released_jobs();

  RuntimeCore core(config);
  out.runtime = drive_lockstep(core, std::move(jobs));
  out.runtime_released = core.released_jobs();
  return out;
}

}  // namespace qes::runtime
