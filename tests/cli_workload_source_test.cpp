// cli::make_jobs is the single spec-validation gate shared by qes_sim,
// qes_cluster, and qes_scenarios — these tests pin both the error
// surface (exact exception types for malformed specs) and the basic
// shape of every regime's output (sorted releases, dense ids, agreeable
// deadlines, arrivals inside the horizon).
#include "cli/workload_source.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

namespace qes::cli {
namespace {

WorkloadSourceSpec small_spec(const std::string& regime) {
  WorkloadSourceSpec spec;
  spec.regime = regime;
  spec.workload.arrival_rate = 200.0;
  spec.workload.horizon_ms = 2'000.0;
  spec.workload.deadline_ms = 150.0;
  spec.workload.seed = 42;
  spec.diurnal_period_ms = 1'000.0;
  return spec;
}

void expect_well_formed(const std::vector<Job>& jobs, Time horizon_ms,
                        Time deadline_ms) {
  ASSERT_FALSE(jobs.empty());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& j = jobs[i];
    EXPECT_EQ(j.id, static_cast<JobId>(i + 1));
    EXPECT_GE(j.release, 0.0);
    EXPECT_LT(j.release, horizon_ms);
    EXPECT_DOUBLE_EQ(j.deadline, j.release + deadline_ms);
    EXPECT_GT(j.demand, 0.0);
    if (i > 0) {
      EXPECT_GE(j.release, jobs[i - 1].release);
    }
  }
}

TEST(WorkloadSource, EverySyntheticRegimeProducesWellFormedJobs) {
  for (const char* regime :
       {"poisson", "uniform", "diurnal", "mmpp", "flash"}) {
    SCOPED_TRACE(regime);
    const WorkloadSourceSpec spec = small_spec(regime);
    const std::vector<Job> jobs = make_jobs(spec);
    expect_well_formed(jobs, spec.workload.horizon_ms,
                       spec.workload.deadline_ms);
  }
}

TEST(WorkloadSource, RegimeListMatchesDispatch) {
  const std::vector<std::string>& regimes = workload_regimes();
  EXPECT_EQ(regimes.size(), 6u);
  EXPECT_NE(std::find(regimes.begin(), regimes.end(), "trace"),
            regimes.end());
}

TEST(WorkloadSource, SameSeedIsDeterministic) {
  const std::vector<Job> a = make_jobs(small_spec("mmpp"));
  const std::vector<Job> b = make_jobs(small_spec("mmpp"));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].release, b[i].release);
    EXPECT_EQ(a[i].demand, b[i].demand);
  }
}

TEST(WorkloadSource, FlashSpikeRaisesArrivalCountInWindow) {
  WorkloadSourceSpec spec = small_spec("flash");
  spec.workload.horizon_ms = 8'000.0;
  spec.flash_factor = 6.0;
  spec.flash_at_ms = 4'000.0;
  spec.flash_len_ms = 2'000.0;
  const std::vector<Job> jobs = make_jobs(spec);
  std::size_t before = 0;
  std::size_t inside = 0;
  for (const Job& j : jobs) {
    if (j.release >= 2'000.0 && j.release < 4'000.0) ++before;
    if (j.release >= 4'000.0 && j.release < 6'000.0) ++inside;
  }
  // Same window length; the spike multiplies the rate by 6.
  EXPECT_GT(inside, 3 * before);
}

TEST(WorkloadSource, UnknownRegimeNamesTheKnownOnes) {
  WorkloadSourceSpec spec = small_spec("poisson");
  spec.regime = "bursty";
  try {
    (void)make_jobs(spec);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("bursty"), std::string::npos);
    EXPECT_NE(msg.find("poisson"), std::string::npos);
    EXPECT_NE(msg.find("mmpp"), std::string::npos);
  }
}

TEST(WorkloadSource, NegativeRateRejected) {
  WorkloadSourceSpec spec = small_spec("poisson");
  spec.workload.arrival_rate = -5.0;
  EXPECT_THROW((void)make_jobs(spec), std::invalid_argument);
  spec.workload.arrival_rate = 0.0;
  EXPECT_THROW((void)make_jobs(spec), std::invalid_argument);
}

TEST(WorkloadSource, NonPositiveHorizonAndDeadlineRejected) {
  WorkloadSourceSpec spec = small_spec("uniform");
  spec.workload.horizon_ms = 0.0;
  EXPECT_THROW((void)make_jobs(spec), std::invalid_argument);
  spec = small_spec("uniform");
  spec.workload.deadline_ms = -1.0;
  EXPECT_THROW((void)make_jobs(spec), std::invalid_argument);
}

TEST(WorkloadSource, OutOfRangeFractionsRejected) {
  WorkloadSourceSpec spec = small_spec("poisson");
  spec.workload.partial_fraction = 1.5;
  EXPECT_THROW((void)make_jobs(spec), std::invalid_argument);
  spec = small_spec("poisson");
  spec.workload.premium_fraction = -0.1;
  EXPECT_THROW((void)make_jobs(spec), std::invalid_argument);
}

TEST(WorkloadSource, BadDemandBoundsRejected) {
  WorkloadSourceSpec spec = small_spec("poisson");
  spec.workload.demand_min = 5.0;
  spec.workload.demand_max = 1.0;
  EXPECT_THROW((void)make_jobs(spec), std::invalid_argument);
}

TEST(WorkloadSource, DiurnalAmplitudeMustStayBelowOne) {
  WorkloadSourceSpec spec = small_spec("diurnal");
  spec.diurnal_amplitude = 1.0;  // rate would hit zero exactly
  EXPECT_THROW((void)make_jobs(spec), std::invalid_argument);
  spec.diurnal_amplitude = -0.2;
  EXPECT_THROW((void)make_jobs(spec), std::invalid_argument);
}

TEST(WorkloadSource, MmppDwellAndRateOrderingChecked) {
  WorkloadSourceSpec spec = small_spec("mmpp");
  spec.mmpp_dwell_lo_ms = 0.0;
  EXPECT_THROW((void)make_jobs(spec), std::invalid_argument);
  spec = small_spec("mmpp");
  spec.mmpp_rate_hi = 10.0;  // below the low rate of 200
  EXPECT_THROW((void)make_jobs(spec), std::invalid_argument);
}

TEST(WorkloadSource, FlashSpikeMustStartInsideHorizon) {
  WorkloadSourceSpec spec = small_spec("flash");
  spec.flash_at_ms = spec.workload.horizon_ms + 1.0;
  EXPECT_THROW((void)make_jobs(spec), std::invalid_argument);
  spec = small_spec("flash");
  spec.flash_factor = 0.5;
  EXPECT_THROW((void)make_jobs(spec), std::invalid_argument);
}

TEST(WorkloadSource, TraceRegimeNeedsAPath) {
  WorkloadSourceSpec spec;
  spec.regime = "trace";
  EXPECT_THROW((void)make_jobs(spec), std::invalid_argument);
}

TEST(WorkloadSource, MissingTraceFileIsARuntimeError) {
  WorkloadSourceSpec spec;
  spec.regime = "trace";
  spec.trace_path = "/nonexistent/qes_no_such_trace.csv";
  EXPECT_THROW((void)make_jobs(spec), std::runtime_error);
}

}  // namespace
}  // namespace qes::cli
