// Conformance of the qesd runtime core against sim::Engine: the same
// trace driven through both must agree on quality exactly and on energy
// within the acceptance bound (5%); in practice the lockstep replay
// reproduces the engine's arithmetic to floating-point noise.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "core/chunked_arena.hpp"
#include "core/job_state.hpp"
#include "runtime/conformance.hpp"
#include "workload/generator.hpp"

namespace qes::runtime {
namespace {

// Tolerances for lockstep agreement (documented in src/runtime/README.md,
// "Conformance tolerances"). The replay shares the engine's per-event
// arithmetic but accumulates energy and clock values through its own
// sequence of additions, so agreement is floating-point-noise level
// rather than bitwise: relative bounds for accumulated quantities,
// absolute bounds (in ms / joules) for values that may legitimately be
// zero. Exact equality is asserted only for integer-valued counts.
constexpr double kRelTol = 1e-9;       // accumulated quality/energy/power
constexpr double kAbsTolMs = 1e-9;     // clock readings and latencies
constexpr double kAbsTolJoules = 1e-9; // energies expected to be zero

RuntimeConfig small_runtime_config() {
  RuntimeConfig rc;
  rc.cores = 8;
  rc.power_budget = 160.0;
  return rc;
}

std::vector<Job> trace(double rate, Time horizon_ms, std::uint64_t seed,
                       double partial_fraction = 1.0) {
  WorkloadConfig wl;
  wl.arrival_rate = rate;
  wl.horizon_ms = horizon_ms;
  wl.partial_fraction = partial_fraction;
  wl.seed = seed;
  return generate_websearch_jobs(wl);
}

void expect_conformant(const ConformanceResult& r) {
  // Acceptance bound: quality equal, energy within 5%.
  EXPECT_LE(r.quality_abs_diff(), 1e-6 * std::max(1.0, r.sim.total_quality));
  EXPECT_LE(r.energy_rel_diff(), 0.05);
  // The replay shares every arithmetic operation with the engine, so the
  // agreement is actually much tighter than the acceptance bound...
  EXPECT_NEAR(r.runtime.total_quality, r.sim.total_quality,
              kRelTol * std::max(1.0, r.sim.total_quality));
  EXPECT_NEAR(r.runtime.dynamic_energy, r.sim.dynamic_energy,
              kRelTol * std::max(1.0, r.sim.dynamic_energy));
  // ...and extends to every decision-derived statistic.
  EXPECT_EQ(r.runtime.jobs_total, r.sim.jobs_total);
  EXPECT_EQ(r.runtime.jobs_satisfied, r.sim.jobs_satisfied);
  EXPECT_EQ(r.runtime.jobs_partial, r.sim.jobs_partial);
  EXPECT_EQ(r.runtime.jobs_zero, r.sim.jobs_zero);
  EXPECT_EQ(r.runtime.replans, r.sim.replans);
  EXPECT_NEAR(r.runtime.end_time, r.sim.end_time, kAbsTolMs);
  EXPECT_NEAR(r.runtime.peak_power, r.sim.peak_power,
              kRelTol * std::max(1.0, r.sim.peak_power));
  EXPECT_NEAR(r.runtime.p95_latency, r.sim.p95_latency, kAbsTolMs);
}

TEST(Conformance, DeterministicModerateLoad) {
  const ConformanceResult r =
      run_conformance(small_runtime_config(), trace(150.0, 3'000.0, 7));
  ASSERT_GT(r.sim.jobs_total, 100u);
  EXPECT_GT(r.sim.total_quality, 0.0);
  expect_conformant(r);
}

TEST(Conformance, OverloadWithRigidJobs) {
  RuntimeConfig rc;
  rc.cores = 4;
  rc.power_budget = 60.0;  // scarce power forces WF + rigid discards
  const ConformanceResult r =
      run_conformance(rc, trace(300.0, 2'000.0, 11, /*partial_fraction=*/0.6));
  ASSERT_GT(r.sim.jobs_total, 100u);
  expect_conformant(r);
}

TEST(Conformance, AggressiveTriggers) {
  RuntimeConfig rc = small_runtime_config();
  rc.quantum_ms = 100.0;
  rc.counter_trigger = 3;
  const ConformanceResult r = run_conformance(rc, trace(200.0, 2'000.0, 5));
  EXPECT_GT(r.sim.replans, 10u);
  expect_conformant(r);
}

TEST(Conformance, SpeedCappedCores) {
  RuntimeConfig rc = small_runtime_config();
  rc.max_core_speed = 1.5;
  const ConformanceResult r = run_conformance(rc, trace(150.0, 2'000.0, 9));
  expect_conformant(r);
}

TEST(Conformance, EmptyTrace) {
  const ConformanceResult r = run_conformance(small_runtime_config(), {});
  EXPECT_EQ(r.sim.jobs_total, 0u);
  EXPECT_EQ(r.runtime.jobs_total, 0u);
  EXPECT_NEAR(r.runtime.total_quality, 0.0, kRelTol);
  EXPECT_NEAR(r.runtime.dynamic_energy, 0.0, kAbsTolJoules);
}

TEST(Conformance, SingleJob) {
  std::vector<Job> jobs = {
      {.id = 1, .release = 0.0, .deadline = 150.0, .demand = 300.0}};
  const ConformanceResult r = run_conformance(small_runtime_config(), jobs);
  EXPECT_EQ(r.sim.jobs_total, 1u);
  EXPECT_EQ(r.sim.jobs_satisfied, 1u);
  expect_conformant(r);
}

// Both planes free whole chunks of their job store behind the live
// window and feed them to the run accumulator first. A run long enough
// to free several chunks on each plane must keep every field the cases
// above compare at the bits it had while both planes held every job
// (pinned below from that code). The planes themselves still differ by
// an ulp in dynamic_energy on this trace, as on the others: they cut
// their energy substeps at different points.
TEST(Conformance, LongRunReleasesChunksOnBothPlanesBitwise) {
  const ConformanceResult r =
      run_conformance(small_runtime_config(), trace(60.0, 300'000.0, 13));
  constexpr std::size_t kChunk = ChunkedArena<JobState>::kChunkSize;
  ASSERT_GE(r.sim.jobs_total, 4 * kChunk);
  EXPECT_GE(r.sim_released, 3 * kChunk);
  EXPECT_GE(r.runtime_released, 3 * kChunk);
  expect_conformant(r);

  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const RunStats* s : {&r.sim, &r.runtime}) {
    SCOPED_TRACE(s == &r.sim ? "sim" : "runtime");
    EXPECT_EQ(bits(s->total_quality), 0x40beed06f965930cULL);
    EXPECT_EQ(bits(s->dynamic_energy), s == &r.sim ? 0x40dc93b8d1e1c566ULL
                                                   : 0x40dc93b8d1e1c567ULL);
    EXPECT_EQ(s->jobs_total, 18079u);
    EXPECT_EQ(s->jobs_satisfied, 16107u);
    EXPECT_EQ(s->jobs_partial, 1972u);
    EXPECT_EQ(s->jobs_zero, 0u);
    EXPECT_EQ(s->replans, 10810u);
    EXPECT_EQ(bits(s->end_time), 0x411251afd25de211ULL);
    EXPECT_EQ(bits(s->peak_power), 0x4064000000000002ULL);
    EXPECT_EQ(bits(s->p95_latency), 0x4062c00000000000ULL);
  }
}

TEST(Lockstep, FinishRequiresAllFinalized) {
  // finish() before the last deadline would under-account idle energy;
  // the lockstep driver always runs to the final deadline, so stats
  // cover the full [0, d_n] window.
  const std::vector<Job> jobs = {
      {.id = 1, .release = 0.0, .deadline = 100.0, .demand = 50.0},
      {.id = 2, .release = 40.0, .deadline = 140.0, .demand = 50.0}};
  const RunStats s = run_lockstep(small_runtime_config(), jobs);
  EXPECT_EQ(s.jobs_total, 2u);
  EXPECT_NEAR(s.end_time, 140.0, kAbsTolMs);
}

}  // namespace
}  // namespace qes::runtime
