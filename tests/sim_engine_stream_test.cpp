// Streaming engine plane: the JobStream constructor must reproduce the
// vector constructor's RunStats BITWISE — the streamed engine admits
// arrivals one pull ahead of simulated time and feeds the run
// accumulator in finalized-id-order prefixes, so every float lands in
// the same operation order as the end-of-run loop. Also covers the
// ChunkedArena the engine stores job state in, and the dead-prefix
// reclamation that bounds streaming RSS.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cli/workload_source.hpp"
#include "multicore/des_scheduler.hpp"
#include "sim/engine.hpp"
#include "sim/job_arena.hpp"
#include "workload/stream.hpp"

namespace qes {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_bitwise_equal(const RunStats& a, const RunStats& b) {
  EXPECT_EQ(bits(a.total_quality), bits(b.total_quality));
  EXPECT_EQ(bits(a.max_quality), bits(b.max_quality));
  EXPECT_EQ(bits(a.normalized_quality), bits(b.normalized_quality));
  EXPECT_EQ(bits(a.dynamic_energy), bits(b.dynamic_energy));
  EXPECT_EQ(bits(a.static_energy), bits(b.static_energy));
  EXPECT_EQ(bits(a.peak_power), bits(b.peak_power));
  EXPECT_EQ(bits(a.end_time), bits(b.end_time));
  EXPECT_EQ(a.jobs_total, b.jobs_total);
  EXPECT_EQ(a.jobs_satisfied, b.jobs_satisfied);
  EXPECT_EQ(a.jobs_partial, b.jobs_partial);
  EXPECT_EQ(a.jobs_zero, b.jobs_zero);
  EXPECT_EQ(a.jobs_discarded_rigid, b.jobs_discarded_rigid);
  EXPECT_EQ(bits(a.mean_latency), bits(b.mean_latency));
  EXPECT_EQ(bits(a.p50_latency), bits(b.p50_latency));
  EXPECT_EQ(bits(a.p95_latency), bits(b.p95_latency));
  EXPECT_EQ(bits(a.p99_latency), bits(b.p99_latency));
  EXPECT_EQ(a.replans, b.replans);
}

EngineConfig small_config() {
  EngineConfig cfg;
  cfg.cores = 4;
  cfg.power_budget = 80.0;
  cfg.quantum_ms = 200.0;
  cfg.counter_trigger = 8;
  cfg.record_execution = false;
  cfg.record_replan_times = false;
  return cfg;
}

cli::WorkloadSourceSpec spec_for(const std::string& regime) {
  cli::WorkloadSourceSpec spec;
  spec.regime = regime;
  spec.workload.arrival_rate = 120.0;
  spec.workload.horizon_ms = 15'000.0;
  spec.workload.deadline_ms = 150.0;
  spec.workload.partial_fraction = 0.5;
  spec.workload.seed = 31;
  return spec;
}

RunStats run_vector(const EngineConfig& cfg,
                    const cli::WorkloadSourceSpec& spec) {
  Engine engine(cfg, cli::make_jobs(spec), make_des_policy({}));
  return engine.run().stats;
}

RunStats run_streamed(EngineConfig cfg, const cli::WorkloadSourceSpec& spec,
                      bool record_job_states) {
  cfg.record_job_states = record_job_states;
  Engine engine(cfg, cli::make_job_stream(spec), make_des_policy({}));
  return engine.run().stats;
}

TEST(EngineStream, StreamedStatsMatchVectorBitwise) {
  for (const char* regime :
       {"poisson", "uniform", "diurnal", "mmpp", "flash"}) {
    SCOPED_TRACE(regime);
    const cli::WorkloadSourceSpec spec = spec_for(regime);
    const RunStats vec = run_vector(small_config(), spec);
    ASSERT_GT(vec.jobs_total, 0u);
    // Both with the state table kept resident and with dead-prefix
    // reclamation on: neither may perturb a single bit.
    expect_bitwise_equal(vec, run_streamed(small_config(), spec, true));
    expect_bitwise_equal(vec, run_streamed(small_config(), spec, false));
  }
}

TEST(EngineStream, StreamedStatsMatchVectorUnderBudgetSteps) {
  EngineConfig cfg = small_config();
  cfg.budget_steps = {{3'000.0, 40.0}, {8'000.0, 80.0}, {12'000.0, 24.0}};
  const cli::WorkloadSourceSpec spec = spec_for("poisson");
  const RunStats vec = run_vector(cfg, spec);
  expect_bitwise_equal(vec, run_streamed(cfg, spec, false));
}

TEST(EngineStream, RecordedJobStatesMatchVector) {
  const cli::WorkloadSourceSpec spec = spec_for("poisson");
  const EngineConfig cfg = small_config();
  Engine vec_engine(cfg, cli::make_jobs(spec), make_des_policy({}));
  const RunResult vec = vec_engine.run();
  Engine stream_engine(cfg, cli::make_job_stream(spec), make_des_policy({}));
  const RunResult str = stream_engine.run();
  ASSERT_EQ(vec.jobs.size(), str.jobs.size());
  for (std::size_t i = 0; i < vec.jobs.size(); ++i) {
    EXPECT_EQ(vec.jobs[i].job.id, str.jobs[i].job.id);
    EXPECT_EQ(bits(vec.jobs[i].processed), bits(str.jobs[i].processed));
    EXPECT_EQ(bits(vec.jobs[i].quality), bits(str.jobs[i].quality));
    EXPECT_EQ(vec.jobs[i].satisfied, str.jobs[i].satisfied);
    EXPECT_EQ(bits(vec.jobs[i].finalized_at), bits(str.jobs[i].finalized_at));
  }
}

TEST(EngineStream, UnrecordedRunLeavesJobTableEmpty) {
  EngineConfig cfg = small_config();
  cfg.record_job_states = false;
  Engine engine(cfg, cli::make_job_stream(spec_for("poisson")),
                make_des_policy({}));
  const RunResult result = engine.run();
  EXPECT_TRUE(result.jobs.empty());
  EXPECT_GT(result.stats.jobs_total, 0u);
}

TEST(EngineStream, EmptyStreamProducesEmptyRun) {
  WorkloadConfig wl;
  wl.arrival_rate = 0.001;  // expected gap of 1000 s vs a 1 ms horizon
  wl.horizon_ms = 1.0;
  EngineConfig cfg = small_config();
  Engine engine(cfg, std::make_unique<WebsearchJobStream>(wl),
                make_des_policy({}));
  const RunResult result = engine.run();
  EXPECT_EQ(result.stats.jobs_total, 0u);
}

// ---- ChunkedArena ----

TEST(ChunkedArena, PushIndexRoundTripAcrossChunks) {
  sim::ChunkedArena<std::size_t> arena;
  const std::size_t n = 3 * sim::ChunkedArena<std::size_t>::kChunkSize + 17;
  for (std::size_t i = 0; i < n; ++i) arena.push_back(i * 3 + 1);
  ASSERT_EQ(arena.size(), n);
  EXPECT_EQ(arena.resident_chunks(), 4u);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(arena[i], i * 3 + 1) << i;
  }
}

TEST(ChunkedArena, ReleaseBeforeFreesWholeChunksOnly) {
  using Arena = sim::ChunkedArena<int>;
  Arena arena;
  const std::size_t n = 2 * Arena::kChunkSize + 100;
  for (std::size_t i = 0; i < n; ++i) arena.push_back(static_cast<int>(i));

  // A floor inside the first chunk frees nothing.
  arena.release_before(Arena::kChunkSize - 1);
  EXPECT_EQ(arena.resident_floor(), 0u);
  EXPECT_EQ(arena[0], 0);

  // A floor inside the second chunk frees exactly the first.
  arena.release_before(Arena::kChunkSize + 5);
  EXPECT_EQ(arena.resident_floor(), Arena::kChunkSize);
  EXPECT_EQ(arena.resident_chunks(), 2u);
  EXPECT_EQ(arena[Arena::kChunkSize],
            static_cast<int>(Arena::kChunkSize));

  // Release is monotone and idempotent.
  arena.release_before(Arena::kChunkSize + 5);
  arena.release_before(n);
  EXPECT_EQ(arena.resident_floor(), 2 * Arena::kChunkSize);
  EXPECT_EQ(arena.resident_chunks(), 1u);
  EXPECT_EQ(arena[n - 1], static_cast<int>(n - 1));
}

TEST(ChunkedArena, ReleasedAccessAsserts) {
  using Arena = sim::ChunkedArena<int>;
  Arena arena;
  for (std::size_t i = 0; i < 2 * Arena::kChunkSize; ++i) {
    arena.push_back(static_cast<int>(i));
  }
  arena.release_before(Arena::kChunkSize);
  EXPECT_DEATH((void)arena[0], "released floor");
  EXPECT_DEATH((void)arena[2 * Arena::kChunkSize], "out of range");
}

}  // namespace
}  // namespace qes
