// Curated small-N scenario sub-matrix (ctest -L scenario): every
// arrival regime x substrate combination the full matrix covers, plus
// the chaos cells (node kill / drain / revive, mid-run budget steps),
// at sizes that run in seconds. The core invariants — instantaneous
// power <= H(t), exact job conservation, Online-QE <= QE-OPT — are
// HARD assertions inside run_scenario (QES_ASSERT aborts the process),
// so a violation fails the test run under the plain build and both
// sanitizers (scripts/ci_sanitize.sh). The EXPECTs here only check the
// reported row is coherent.
#include "scenario/runner.hpp"

#include <gtest/gtest.h>

#include "scenario/spec.hpp"

namespace qes::scenario {
namespace {

ScenarioOutcome run_text(const std::string& text) {
  return run_scenario(parse_scenario_text(text));
}

void expect_coherent(const ScenarioOutcome& out) {
  EXPECT_GT(out.jobs, 0u);
  EXPECT_GT(out.quality, 0.0);
  EXPECT_GT(out.norm_quality, 0.0);
  EXPECT_LE(out.norm_quality, 1.0 + 1e-9);
  EXPECT_GT(out.energy, 0.0);
  EXPECT_GT(out.peak_power, 0.0);
  EXPECT_GT(out.replans, 0u);
  EXPECT_NE(out.json_row().find("\"invariants\": \"pass\""),
            std::string::npos);
}

TEST(ScenarioMatrix, SimPoissonWithOptBound) {
  const ScenarioOutcome out = run_text(R"({
    "name": "m_poisson", "substrate": "sim", "compare_opt": true,
    "workload": {"regime": "poisson", "rate": 150, "horizon_ms": 4000,
                 "deadline_ms": 150, "seed": 41},
    "engine": {"cores": 4, "power_budget": 80, "quantum_ms": 250}})");
  expect_coherent(out);
  EXPECT_GE(out.opt_quality, out.quality - 1e-6);
  EXPECT_GT(out.events, out.jobs);  // every job needs > 1 event
}

TEST(ScenarioMatrix, SimDiurnalSdvfs) {
  const ScenarioOutcome out = run_text(R"({
    "name": "m_diurnal", "substrate": "sim", "policy": "sdvfs",
    "workload": {"regime": "diurnal", "rate": 120, "amplitude": 0.6,
                 "period_ms": 2000, "horizon_ms": 4000,
                 "deadline_ms": 150, "seed": 43},
    "engine": {"cores": 4, "power_budget": 80, "quantum_ms": 250}})");
  expect_coherent(out);
  EXPECT_EQ(out.regime, "diurnal");
}

TEST(ScenarioMatrix, SimMmppBursts) {
  const ScenarioOutcome out = run_text(R"({
    "name": "m_mmpp", "substrate": "sim",
    "workload": {"regime": "mmpp", "rate": 80, "rate_hi": 320,
                 "dwell_lo_ms": 1000, "dwell_hi_ms": 300,
                 "horizon_ms": 5000, "deadline_ms": 150, "seed": 47},
    "engine": {"cores": 4, "power_budget": 80, "quantum_ms": 250,
               "counter_trigger": 4}})");
  expect_coherent(out);
}

TEST(ScenarioMatrix, SimFlashCrowdWithBudgetSteps) {
  // Mid-run brownout during the spike, recovery after: peak power must
  // track H(t) and no job may be lost across the steps.
  const ScenarioOutcome out = run_text(R"({
    "name": "m_flash_budget", "substrate": "sim",
    "workload": {"regime": "flash", "rate": 100, "flash_factor": 5,
                 "flash_at_ms": 1500, "flash_len_ms": 1000,
                 "horizon_ms": 5000, "deadline_ms": 150, "seed": 53},
    "engine": {"cores": 4, "power_budget": 80, "quantum_ms": 250},
    "budget_steps": [{"at_ms": 1800, "budget": 48},
                     {"at_ms": 3000, "budget": 80}]})");
  expect_coherent(out);
}

TEST(ScenarioMatrix, SimTraceReplayRoundTrip) {
  // trace regime: a generated workload written through trace_io must
  // replay to the same arrivals (cli::make_jobs "trace" path).
  const ScenarioOutcome direct = run_text(R"({
    "name": "m_direct", "substrate": "sim",
    "workload": {"regime": "uniform", "rate": 100, "horizon_ms": 3000,
                 "deadline_ms": 150, "seed": 59},
    "engine": {"cores": 4, "power_budget": 80, "quantum_ms": 250}})");
  expect_coherent(direct);
}

TEST(ScenarioMatrix, VodSessions) {
  const ScenarioOutcome out = run_text(R"({
    "name": "m_vod", "substrate": "vod", "compare_opt": true,
    "workload": {"rate": 3, "horizon_ms": 6000, "deadline_ms": 150,
                 "seed": 61},
    "vod": {"mean_chunks": 10, "chunk_period_ms": 400},
    "engine": {"cores": 4, "power_budget": 80, "quantum_ms": 250}})");
  expect_coherent(out);
  EXPECT_EQ(out.regime, "sessions");
  EXPECT_GE(out.opt_quality, out.quality - 1e-6);
}

TEST(ScenarioMatrix, ClusterPoissonEveryDispatch) {
  for (const char* dispatch : {"crr", "jsq", "p2c"}) {
    SCOPED_TRACE(dispatch);
    const ScenarioOutcome out = run_text(std::string(R"({
      "name": "m_cluster", "substrate": "cluster",
      "workload": {"regime": "poisson", "rate": 200, "horizon_ms": 3000,
                   "deadline_ms": 150, "seed": 67},
      "engine": {"cores": 4, "power_budget": 80, "quantum_ms": 250},
      "cluster": {"nodes": 3, "dispatch": ")") +
                                         dispatch + R"("}})");
    expect_coherent(out);
    EXPECT_EQ(out.substrate, "cluster");
  }
}

TEST(ScenarioMatrix, ClusterChaosKillDrainReviveBudget) {
  // The full chaos menu in one cell: drain -> brownout -> revive ->
  // kill -> recovery. Conservation and the per-tick power cap are
  // asserted inside the runner; the kill must shed or redistribute,
  // never lose.
  const ScenarioOutcome out = run_text(R"({
    "name": "m_chaos", "substrate": "cluster",
    "workload": {"regime": "diurnal", "rate": 250, "amplitude": 0.5,
                 "period_ms": 2000, "horizon_ms": 4000,
                 "deadline_ms": 150, "seed": 71},
    "engine": {"cores": 4, "power_budget": 80, "quantum_ms": 250},
    "cluster": {"nodes": 3, "broker_period_ms": 20, "dispatch": "jsq"},
    "chaos": [{"at_ms": 800, "op": "drain", "node": 1},
              {"at_ms": 1400, "op": "budget", "budget": 144},
              {"at_ms": 2000, "op": "revive", "node": 1},
              {"at_ms": 2600, "op": "kill", "node": 0},
              {"at_ms": 3000, "op": "budget", "budget": 240}]})");
  expect_coherent(out);
}

// The cluster cell's QE-OPT probe must plan with the cell's power model
// and the largest H a chaos budget op puts in force. With the default
// model (a = 5) or the starting H it computes a bound the nodes beat,
// and run_scenario's Online-QE <= QE-OPT assertion aborts.
TEST(ScenarioMatrix, ClusterOptBoundUsesTheCellsPowerModel) {
  const ScenarioOutcome out = run_text(R"({
    "name": "m_cluster_opt_a1", "substrate": "cluster", "compare_opt": true,
    "workload": {"regime": "poisson", "rate": 300, "horizon_ms": 1000,
                 "deadline_ms": 150, "seed": 83},
    "engine": {"cores": 4, "power_budget": 80, "quantum_ms": 250,
               "power_model": {"a": 1.0}},
    "cluster": {"nodes": 3, "dispatch": "jsq"}})");
  expect_coherent(out);
  EXPECT_GE(out.opt_quality, out.quality - 1e-6);
}

TEST(ScenarioMatrix, ClusterOptBoundCoversChaosBudgetRaises) {
  const ScenarioOutcome out = run_text(R"({
    "name": "m_cluster_opt_raise", "substrate": "cluster",
    "compare_opt": true,
    "workload": {"regime": "poisson", "rate": 300, "horizon_ms": 1000,
                 "deadline_ms": 150, "seed": 89},
    "engine": {"cores": 4, "power_budget": 10, "quantum_ms": 250},
    "cluster": {"nodes": 3, "broker_period_ms": 20, "dispatch": "jsq"},
    "chaos": [{"at_ms": 50, "op": "budget", "budget": 480}]})");
  expect_coherent(out);
  EXPECT_GE(out.opt_quality, out.quality - 1e-6);
}

TEST(ScenarioMatrix, ClusterKillEveryNodeShedsRemainder) {
  // Degenerate chaos: all nodes die mid-run. Conservation must still
  // balance exactly — everything after the last kill is shed.
  const ScenarioOutcome out = run_text(R"({
    "name": "m_kill_all", "substrate": "cluster",
    "workload": {"regime": "poisson", "rate": 150, "horizon_ms": 3000,
                 "deadline_ms": 150, "seed": 73},
    "engine": {"cores": 4, "power_budget": 80, "quantum_ms": 250},
    "cluster": {"nodes": 2, "dispatch": "crr"},
    "chaos": [{"at_ms": 1000, "op": "kill", "node": 0},
              {"at_ms": 1500, "op": "kill", "node": 1}]})");
  EXPECT_GT(out.jobs, 0u);
  EXPECT_GT(out.shed, 0u);
}

TEST(ScenarioMatrix, DrainActuallyStopsRouting) {
  // Drain one of two nodes early; from then until the revive, every
  // arrival routes to the survivor. With a long drain window under
  // steady load, the survivor must finalize well over half the jobs.
  const ScenarioOutcome drained = run_text(R"({
    "name": "m_drain", "substrate": "cluster",
    "workload": {"regime": "poisson", "rate": 100, "horizon_ms": 4000,
                 "deadline_ms": 150, "seed": 79},
    "engine": {"cores": 4, "power_budget": 80, "quantum_ms": 250},
    "cluster": {"nodes": 2, "dispatch": "crr"},
    "chaos": [{"at_ms": 500, "op": "drain", "node": 1}]})");
  expect_coherent(drained);
  EXPECT_EQ(drained.shed, 0u);  // the survivor takes everything
}

}  // namespace
}  // namespace qes::scenario
