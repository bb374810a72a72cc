// Scenario spec plane: the JSON parser's grammar and error surface, the
// spec validation rules, and a parse pass over every shipped
// scenarios/*.json (a spec that rots in the repo fails here, not in a
// nightly).
#include "scenario/spec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <stdexcept>

#include "scenario/json.hpp"

namespace qes::scenario {
namespace {

TEST(Json, ParsesScalarsArraysObjects) {
  const Json j = Json::parse(
      R"({"a": 1.5, "b": "x\ny", "c": [1, 2, 3], "d": {"e": true}, "f": null})");
  ASSERT_TRUE(j.is_object());
  EXPECT_DOUBLE_EQ(j.find("a")->as_number(), 1.5);
  EXPECT_EQ(j.find("b")->as_string(), "x\ny");
  ASSERT_EQ(j.find("c")->as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(j.find("c")->as_array()[2].as_number(), 3.0);
  EXPECT_TRUE(j.find("d")->find("e")->as_bool());
  EXPECT_TRUE(j.find("f")->is_null());
  EXPECT_EQ(j.find("missing"), nullptr);
}

TEST(Json, ParsesNegativeAndExponentNumbers) {
  EXPECT_DOUBLE_EQ(Json::parse("-2.5e3").as_number(), -2500.0);
  EXPECT_DOUBLE_EQ(Json::parse("21600000").as_number(), 21'600'000.0);
}

TEST(Json, RejectsMalformedDocuments) {
  EXPECT_THROW((void)Json::parse(""), std::runtime_error);
  EXPECT_THROW((void)Json::parse("{"), std::runtime_error);
  EXPECT_THROW((void)Json::parse(R"({"a": })"), std::runtime_error);
  EXPECT_THROW((void)Json::parse(R"({"a": 1,})"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("[1 2]"), std::runtime_error);
  EXPECT_THROW((void)Json::parse(R"("open)"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("{} extra"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("tru"), std::runtime_error);
}

TEST(Json, TypeMismatchThrows) {
  const Json j = Json::parse(R"({"a": 1})");
  EXPECT_THROW((void)j.find("a")->as_string(), std::runtime_error);
  EXPECT_THROW((void)j.as_array(), std::runtime_error);
  EXPECT_THROW((void)j.string_or("a", "x"), std::runtime_error);
  EXPECT_DOUBLE_EQ(j.number_or("absent", 7.0), 7.0);
}

TEST(ScenarioSpec, DefaultsFillUnspecifiedFields) {
  const ScenarioSpec s = parse_scenario_text(R"({"name": "x"})");
  EXPECT_EQ(s.name, "x");
  EXPECT_EQ(s.substrate, "sim");
  EXPECT_EQ(s.policy, "des");
  EXPECT_EQ(s.workload.regime, "poisson");
  EXPECT_EQ(s.cores, 16);
  EXPECT_FALSE(s.compare_opt);
}

TEST(ScenarioSpec, ParsesFullClusterChaosCell) {
  const ScenarioSpec s = parse_scenario_text(R"({
    "name": "chaos", "substrate": "cluster", "policy": "sdvfs",
    "workload": {"regime": "mmpp", "rate": 100, "rate_hi": 400,
                 "horizon_ms": 5000, "seed": 3},
    "engine": {"cores": 4, "power_budget": 80},
    "cluster": {"nodes": 3, "dispatch": "p2c"},
    "chaos": [{"at_ms": 500, "op": "drain", "node": 1},
              {"at_ms": 900, "op": "budget", "budget": 120},
              {"at_ms": 1200, "op": "revive", "node": 1},
              {"at_ms": 1500, "op": "kill", "node": 0}]})");
  EXPECT_EQ(s.substrate, "cluster");
  EXPECT_EQ(s.policy, "sdvfs");
  EXPECT_EQ(s.workload.regime, "mmpp");
  EXPECT_DOUBLE_EQ(s.workload.mmpp_rate_hi, 400.0);
  EXPECT_EQ(s.nodes, 3);
  EXPECT_EQ(s.dispatch, "p2c");
  ASSERT_EQ(s.chaos.size(), 4u);
  EXPECT_EQ(s.chaos[0].kind, cluster::ChaosEvent::Kind::Drain);
  EXPECT_EQ(s.chaos[1].kind, cluster::ChaosEvent::Kind::BudgetStep);
  EXPECT_DOUBLE_EQ(s.chaos[1].budget, 120.0);
  EXPECT_EQ(s.chaos[2].kind, cluster::ChaosEvent::Kind::Revive);
  EXPECT_EQ(s.chaos[3].kind, cluster::ChaosEvent::Kind::Kill);
  EXPECT_EQ(s.chaos[3].node, 0);
}

TEST(ScenarioSpec, RejectsUnknownEnumerations) {
  EXPECT_THROW((void)parse_scenario_text(R"({"substrate": "gpu"})"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_scenario_text(R"({"policy": "greedy"})"),
               std::invalid_argument);
  EXPECT_THROW(
      (void)parse_scenario_text(R"({"workload": {"regime": "sawtooth"}})"),
      std::invalid_argument);
  EXPECT_THROW((void)parse_scenario_text(
                   R"({"cluster": {"dispatch": "random"}})"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_scenario_text(R"({"substrate": "cluster",
      "chaos": [{"at_ms": 1, "op": "explode", "node": 0}]})"),
               std::invalid_argument);
}

TEST(ScenarioSpec, RejectsMalformedSchedules) {
  // Budget steps out of order.
  EXPECT_THROW((void)parse_scenario_text(R"({"budget_steps": [
      {"at_ms": 500, "budget": 100}, {"at_ms": 100, "budget": 80}]})"),
               std::invalid_argument);
  // Non-positive stepped budget.
  EXPECT_THROW((void)parse_scenario_text(
                   R"({"budget_steps": [{"at_ms": 10, "budget": 0}]})"),
               std::invalid_argument);
  // Chaos on a non-cluster substrate.
  EXPECT_THROW((void)parse_scenario_text(R"({"substrate": "sim",
      "chaos": [{"at_ms": 1, "op": "kill", "node": 0}]})"),
               std::invalid_argument);
  // Chaos event without a node.
  EXPECT_THROW((void)parse_scenario_text(R"({"substrate": "cluster",
      "chaos": [{"at_ms": 1, "op": "kill"}]})"),
               std::invalid_argument);
  // The QE-OPT bound on a cell whose kills re-admit orphans as new jobs;
  // budget and drain ops keep the job set, so those cells may ask for it.
  EXPECT_THROW((void)parse_scenario_text(R"({"substrate": "cluster",
      "compare_opt": true,
      "chaos": [{"at_ms": 1, "op": "kill", "node": 0}]})"),
               std::invalid_argument);
  EXPECT_TRUE(parse_scenario_text(R"({"substrate": "cluster",
      "compare_opt": true,
      "chaos": [{"at_ms": 1, "op": "budget", "budget": 90},
                {"at_ms": 2, "op": "drain", "node": 0}]})")
                  .compare_opt);
  // Engine sanity.
  EXPECT_THROW((void)parse_scenario_text(R"({"engine": {"cores": 0}})"),
               std::invalid_argument);
  EXPECT_THROW(
      (void)parse_scenario_text(R"({"engine": {"power_budget": -5}})"),
      std::invalid_argument);
}

TEST(ScenarioSpec, PeriodicBudgetStepsExpandAtParseTime) {
  const ScenarioSpec s = parse_scenario_text(R"({
    "workload": {"horizon_ms": 100000},
    "budget_steps": [
      {"op": "budget_step", "every_s": 30, "budget_cycle": [160, 320]}
    ]})");
  // Default first firing is one period in; default until is the
  // horizon: 30 s, 60 s, 90 s.
  ASSERT_EQ(s.budget_steps.size(), 3u);
  EXPECT_DOUBLE_EQ(s.budget_steps[0].at, 30'000.0);
  EXPECT_DOUBLE_EQ(s.budget_steps[0].budget, 160.0);
  EXPECT_DOUBLE_EQ(s.budget_steps[1].at, 60'000.0);
  EXPECT_DOUBLE_EQ(s.budget_steps[1].budget, 320.0);
  EXPECT_DOUBLE_EQ(s.budget_steps[2].at, 90'000.0);
  EXPECT_DOUBLE_EQ(s.budget_steps[2].budget, 160.0);
}

TEST(ScenarioSpec, PeriodicBudgetStepsMergeSortedWithOneShots) {
  const ScenarioSpec s = parse_scenario_text(R"({
    "workload": {"horizon_ms": 60000},
    "budget_steps": [
      {"at_ms": 5000, "budget": 100},
      {"every_ms": 20000, "at_ms": 1000, "until_ms": 45000, "budget": 50}
    ]})");
  ASSERT_EQ(s.budget_steps.size(), 4u);
  EXPECT_DOUBLE_EQ(s.budget_steps[0].at, 1'000.0);
  EXPECT_DOUBLE_EQ(s.budget_steps[1].at, 5'000.0);
  EXPECT_DOUBLE_EQ(s.budget_steps[1].budget, 100.0);
  EXPECT_DOUBLE_EQ(s.budget_steps[2].at, 21'000.0);
  EXPECT_DOUBLE_EQ(s.budget_steps[3].at, 41'000.0);
  EXPECT_TRUE(std::is_sorted(
      s.budget_steps.begin(), s.budget_steps.end(),
      [](const EngineBudgetStep& a, const EngineBudgetStep& b) {
        return a.at < b.at;
      }));
}

TEST(ScenarioSpec, PeriodicChaosExpandsAndSupportsBudgetStepAlias) {
  const ScenarioSpec s = parse_scenario_text(R"({
    "substrate": "cluster",
    "workload": {"horizon_ms": 50000},
    "chaos": [
      {"at_ms": 100, "op": "kill", "node": 0},
      {"every_s": 20, "op": "budget_step", "budget_cycle": [200, 400]},
      {"every_ms": 25000, "at_ms": 12000, "op": "drain", "node": 1}
    ]})");
  // kill@100 + budget@20s,40s + drain@12s,37s => 5 events, sorted.
  ASSERT_EQ(s.chaos.size(), 5u);
  EXPECT_EQ(s.chaos[0].kind, cluster::ChaosEvent::Kind::Kill);
  EXPECT_EQ(s.chaos[1].kind, cluster::ChaosEvent::Kind::Drain);
  EXPECT_DOUBLE_EQ(s.chaos[1].t, 12'000.0);
  EXPECT_EQ(s.chaos[2].kind, cluster::ChaosEvent::Kind::BudgetStep);
  EXPECT_DOUBLE_EQ(s.chaos[2].budget, 200.0);
  EXPECT_EQ(s.chaos[3].kind, cluster::ChaosEvent::Kind::Drain);
  EXPECT_DOUBLE_EQ(s.chaos[3].t, 37'000.0);
  EXPECT_EQ(s.chaos[4].kind, cluster::ChaosEvent::Kind::BudgetStep);
  EXPECT_DOUBLE_EQ(s.chaos[4].budget, 400.0);
}

TEST(ScenarioSpec, PeriodicEntriesRejectMalformedSchedules) {
  // Both every_s and every_ms.
  EXPECT_THROW((void)parse_scenario_text(R"({"budget_steps": [
      {"every_s": 1, "every_ms": 1000, "budget": 100}]})"),
               std::invalid_argument);
  // Non-positive period.
  EXPECT_THROW((void)parse_scenario_text(R"({"budget_steps": [
      {"every_s": 0, "budget": 100}]})"),
               std::invalid_argument);
  // Unbounded amplification: a 1 ms period over a long horizon.
  EXPECT_THROW((void)parse_scenario_text(R"({
      "workload": {"horizon_ms": 3600000},
      "budget_steps": [{"every_ms": 1, "budget": 100}]})"),
               std::invalid_argument);
  // Empty budget cycle.
  EXPECT_THROW((void)parse_scenario_text(R"({"budget_steps": [
      {"every_s": 10, "budget_cycle": []}]})"),
               std::invalid_argument);
  // Non-positive budget inside a cycle.
  EXPECT_THROW((void)parse_scenario_text(R"({"budget_steps": [
      {"every_s": 10, "budget_cycle": [100, 0]}]})"),
               std::invalid_argument);
  // Periodic chaos still requires the cluster substrate.
  EXPECT_THROW((void)parse_scenario_text(R"({
      "chaos": [{"every_s": 10, "op": "budget_step", "budget": 100}]})"),
               std::invalid_argument);
  // budget_steps only take the budget_step op.
  EXPECT_THROW((void)parse_scenario_text(R"({"budget_steps": [
      {"every_s": 10, "op": "kill", "budget": 100}]})"),
               std::invalid_argument);
}

TEST(ScenarioSpec, ParsesPowerModelBlock) {
  const ScenarioSpec s = parse_scenario_text(R"({
    "engine": {"cores": 8, "power_budget": 160, "power_model": {
      "a": 4.0, "beta": 3.0, "b": 2.0, "sleep_enabled": true,
      "sleep_power": 0.2, "wake_latency_ms": 1.0, "wake_energy_j": 0.05,
      "race_to_idle": false}}})");
  EXPECT_DOUBLE_EQ(s.power_model.a, 4.0);
  EXPECT_DOUBLE_EQ(s.power_model.beta, 3.0);
  EXPECT_DOUBLE_EQ(s.power_model.b, 2.0);
  EXPECT_TRUE(s.power_model.has_sleep());
  EXPECT_DOUBLE_EQ(s.power_model.sleep_power, 0.2);
  EXPECT_DOUBLE_EQ(s.power_model.wake_latency_ms, 1.0);
  EXPECT_DOUBLE_EQ(s.power_model.wake_energy_j, 0.05);
  EXPECT_FALSE(s.race_to_idle);
  // Defaults: the paper's b = 0 model, no sleep state, race enabled
  // (inert without a sleep state).
  const ScenarioSpec d = parse_scenario_text(R"({"name": "d"})");
  EXPECT_DOUBLE_EQ(d.power_model.b, 0.0);
  EXPECT_FALSE(d.power_model.has_sleep());
  EXPECT_TRUE(d.race_to_idle);
}

TEST(ScenarioSpec, RejectsMalformedPowerModels) {
  // beta must be > 1 (convexity is load-bearing for the planner).
  EXPECT_THROW((void)parse_scenario_text(R"({"engine": {"power_model":
      {"beta": 1.0}}})"),
               std::invalid_argument);
  // Negative static floor.
  EXPECT_THROW((void)parse_scenario_text(R"({"engine": {"power_model":
      {"b": -1.0}}})"),
               std::invalid_argument);
  // A sleep state without a static floor saves nothing.
  EXPECT_THROW((void)parse_scenario_text(R"({"engine": {"power_model":
      {"sleep_enabled": true}}})"),
               std::invalid_argument);
  // Sleep draw above the awake floor.
  EXPECT_THROW((void)parse_scenario_text(R"({"engine": {"power_model":
      {"b": 1.0, "sleep_enabled": true, "sleep_power": 2.0}}})"),
               std::invalid_argument);
  // Negative wake transition cost.
  EXPECT_THROW((void)parse_scenario_text(R"({"engine": {"power_model":
      {"b": 1.0, "sleep_enabled": true, "wake_energy_j": -0.1}}})"),
               std::invalid_argument);
}

TEST(ScenarioSpec, MissingFileIsARuntimeError) {
  EXPECT_THROW((void)load_scenario_file("/nonexistent/cell.json"),
               std::runtime_error);
}

// Every spec shipped under scenarios/ must parse and validate — the
// matrix must never rot. QES_SCENARIO_DIR is injected by CMake.
TEST(ScenarioSpec, ShippedScenarioMatrixParses) {
  namespace fs = std::filesystem;
  std::size_t seen = 0;
  for (const fs::directory_entry& e :
       fs::directory_iterator(QES_SCENARIO_DIR)) {
    if (e.path().extension() != ".json") continue;
    SCOPED_TRACE(e.path().string());
    const ScenarioSpec s = load_scenario_file(e.path().string());
    EXPECT_FALSE(s.name.empty());
    ++seen;
  }
  EXPECT_GE(seen, 7u);
}

}  // namespace
}  // namespace qes::scenario
