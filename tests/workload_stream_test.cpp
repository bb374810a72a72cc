// Workload streams (src/workload/stream.hpp): every synthetic regime's
// pull-based JobStream must replay the exact sample path of the batch
// generator — same RNG call order, same arithmetic, so the drained
// stream equals the vector byte for byte. The batch generators are the
// drained form of the streams, but make_job_stream / make_jobs also
// route through independent validation, so this pins the whole CLI
// surface.
#include "workload/stream.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "cli/workload_source.hpp"
#include "workload/generator.hpp"

namespace qes {
namespace {

void expect_same_jobs(const std::vector<Job>& a, const std::vector<Job>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << "job " << i;
    // Exact (not approximate) equality: the stream must run the same
    // floating-point operations in the same order.
    EXPECT_EQ(a[i].release, b[i].release) << "job " << i;
    EXPECT_EQ(a[i].deadline, b[i].deadline) << "job " << i;
    EXPECT_EQ(a[i].demand, b[i].demand) << "job " << i;
    EXPECT_EQ(a[i].weight, b[i].weight) << "job " << i;
    EXPECT_EQ(a[i].partial_ok, b[i].partial_ok) << "job " << i;
  }
}

std::vector<Job> drain(JobStream& stream) {
  std::vector<Job> jobs;
  while (std::optional<Job> j = stream.next()) jobs.push_back(*j);
  return jobs;
}

TEST(WorkloadStream, WebsearchStreamMatchesBatch) {
  WorkloadConfig cfg;
  cfg.arrival_rate = 120.0;
  cfg.horizon_ms = 20'000.0;
  cfg.premium_fraction = 0.25;
  cfg.premium_weight = 3.0;
  cfg.seed = 42;
  WebsearchJobStream stream(cfg);
  expect_same_jobs(generate_websearch_jobs(cfg), drain(stream));
}

TEST(WorkloadStream, DiurnalStreamMatchesBatch) {
  DiurnalConfig cfg;
  cfg.base_rate = 150.0;
  cfg.amplitude = 0.6;
  cfg.period_ms = 10'000.0;
  cfg.horizon_ms = 30'000.0;
  cfg.seed = 7;
  DiurnalJobStream stream(cfg);
  expect_same_jobs(generate_diurnal_jobs(cfg), drain(stream));
}

TEST(WorkloadStream, MmppStreamMatchesBatch) {
  MmppConfig cfg;
  cfg.rate_lo = 50.0;
  cfg.rate_hi = 400.0;
  cfg.dwell_lo_ms = 2'000.0;
  cfg.dwell_hi_ms = 500.0;
  cfg.horizon_ms = 30'000.0;
  cfg.seed = 11;
  MmppJobStream stream(cfg);
  expect_same_jobs(generate_mmpp_jobs(cfg), drain(stream));
}

TEST(WorkloadStream, FlashStreamMatchesBatch) {
  FlashConfig cfg;
  cfg.base_rate = 100.0;
  cfg.spike_factor = 5.0;
  cfg.spike_at_ms = 5'000.0;
  cfg.spike_len_ms = 2'000.0;
  cfg.horizon_ms = 20'000.0;
  cfg.seed = 13;
  FlashJobStream stream(cfg);
  expect_same_jobs(generate_flash_jobs(cfg), drain(stream));
}

TEST(WorkloadStream, MakeJobStreamMatchesMakeJobsForEveryRegime) {
  for (const char* regime :
       {"poisson", "uniform", "diurnal", "mmpp", "flash"}) {
    cli::WorkloadSourceSpec spec;
    spec.regime = regime;
    spec.workload.arrival_rate = 80.0;
    spec.workload.horizon_ms = 15'000.0;
    spec.workload.seed = 99;
    auto stream = cli::make_job_stream(spec);
    expect_same_jobs(cli::make_jobs(spec), drain(*stream));
  }
}

TEST(WorkloadStream, JobsAreDenseOrderedAndAgreeable) {
  cli::WorkloadSourceSpec spec;
  spec.regime = "mmpp";
  spec.workload.arrival_rate = 60.0;
  spec.workload.horizon_ms = 10'000.0;
  auto stream = cli::make_job_stream(spec);
  const std::vector<Job> jobs = drain(*stream);
  ASSERT_FALSE(jobs.empty());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].id, static_cast<JobId>(i + 1));
    if (i > 0) {
      EXPECT_GE(jobs[i].release, jobs[i - 1].release);
      EXPECT_GE(jobs[i].deadline, jobs[i - 1].deadline);
    }
  }
}

TEST(WorkloadStream, ExhaustionIsTerminal) {
  WorkloadConfig cfg;
  cfg.arrival_rate = 100.0;
  cfg.horizon_ms = 2'000.0;
  WebsearchJobStream stream(cfg);
  while (stream.next()) {
  }
  // The contract: once exhausted, next() keeps returning nullopt.
  EXPECT_FALSE(stream.next().has_value());
  EXPECT_FALSE(stream.next().has_value());
}

TEST(WorkloadStream, TraceRegimeCannotStream) {
  cli::WorkloadSourceSpec spec;
  spec.regime = "trace";
  spec.trace_path = "does_not_matter.csv";
  EXPECT_THROW((void)cli::make_job_stream(spec), std::invalid_argument);
}

TEST(WorkloadStream, MalformedSpecsRejected) {
  cli::WorkloadSourceSpec spec;
  spec.regime = "poisson";
  spec.workload.arrival_rate = -1.0;
  EXPECT_THROW((void)cli::make_job_stream(spec), std::invalid_argument);
  spec.workload.arrival_rate = 10.0;
  spec.regime = "nope";
  EXPECT_THROW((void)cli::make_job_stream(spec), std::invalid_argument);
}

}  // namespace
}  // namespace qes
