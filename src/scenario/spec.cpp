#include "scenario/spec.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace qes::scenario {

namespace {

void require(bool ok, const std::string& what) {
  if (!ok) throw std::invalid_argument("scenario spec: " + what);
}

void parse_workload(const Json& j, cli::WorkloadSourceSpec& w) {
  w.regime = j.string_or("regime", w.regime);
  w.workload.arrival_rate = j.number_or("rate", w.workload.arrival_rate);
  w.workload.horizon_ms = j.number_or("horizon_ms", w.workload.horizon_ms);
  w.workload.deadline_ms = j.number_or("deadline_ms", w.workload.deadline_ms);
  w.workload.partial_fraction =
      j.number_or("partial_fraction", w.workload.partial_fraction);
  w.workload.premium_fraction =
      j.number_or("premium_fraction", w.workload.premium_fraction);
  w.workload.pareto_alpha =
      j.number_or("pareto_alpha", w.workload.pareto_alpha);
  w.workload.demand_min = j.number_or("demand_min", w.workload.demand_min);
  w.workload.demand_max = j.number_or("demand_max", w.workload.demand_max);
  w.workload.seed = static_cast<std::uint64_t>(
      j.number_or("seed", static_cast<double>(w.workload.seed)));
  w.diurnal_amplitude = j.number_or("amplitude", w.diurnal_amplitude);
  w.diurnal_period_ms = j.number_or("period_ms", w.diurnal_period_ms);
  w.mmpp_rate_hi = j.number_or("rate_hi", w.mmpp_rate_hi);
  w.mmpp_dwell_lo_ms = j.number_or("dwell_lo_ms", w.mmpp_dwell_lo_ms);
  w.mmpp_dwell_hi_ms = j.number_or("dwell_hi_ms", w.mmpp_dwell_hi_ms);
  w.flash_factor = j.number_or("flash_factor", w.flash_factor);
  w.flash_at_ms = j.number_or("flash_at_ms", w.flash_at_ms);
  w.flash_len_ms = j.number_or("flash_len_ms", w.flash_len_ms);
  w.trace_path = j.string_or("trace", w.trace_path);
  const auto& known = cli::workload_regimes();
  require(std::find(known.begin(), known.end(), w.regime) != known.end(),
          "unknown arrival regime \"" + w.regime + "\"");
}

/// Periodic (repeating) schedule entries: any budget_steps / chaos
/// entry carrying "every_s" or "every_ms" expands at parse time into
/// one-shot firings at start, start + period, ... up to "until_ms"
/// (default: the workload horizon). "at_ms" sets the first firing and
/// defaults to one period in; "budget_cycle" (an array) cycles a
/// different budget per firing, e.g. a square-wave brownout. The
/// expansion is bounded so a tiny period cannot amplify a spec into an
/// unbounded schedule.
constexpr std::size_t kMaxPeriodicFirings = 10'000;

double periodic_period_ms(const Json& j) {
  const bool has_s = j.find("every_s") != nullptr;
  const bool has_ms = j.find("every_ms") != nullptr;
  require(!(has_s && has_ms),
          "periodic entry takes every_s or every_ms, not both");
  const double period = has_s ? j.number_or("every_s", 0.0) * 1000.0
                              : j.number_or("every_ms", 0.0);
  require(period > 0.0, "periodic entry needs a positive period");
  return period;
}

/// Firing instants for one periodic entry (shared by both schedules).
std::vector<double> periodic_firings(const Json& j, Time horizon_ms) {
  const double period = periodic_period_ms(j);
  const double start = j.number_or("at_ms", period);
  require(start >= 0.0, "periodic entry needs a non-negative at_ms");
  const double until = j.number_or("until_ms", horizon_ms);
  std::vector<double> times;
  for (double t = start; t <= until + 1e-9; t += period) {
    require(times.size() < kMaxPeriodicFirings,
            "periodic entry expands to more than 10000 firings "
            "(raise the period or lower until_ms)");
    times.push_back(t);
  }
  return times;
}

/// Budgets applied across the firings: a scalar "budget" or a cycled
/// "budget_cycle" array.
std::vector<double> periodic_budget_cycle(const Json& j) {
  std::vector<double> cycle;
  if (const Json* c = j.find("budget_cycle")) {
    for (const Json& v : c->as_array()) cycle.push_back(v.as_number());
    require(!cycle.empty(), "budget_cycle must not be empty");
  } else {
    cycle.push_back(j.number_or("budget", 0.0));
  }
  for (double b : cycle) {
    require(b > 0.0, "periodic budget entries must keep H positive");
  }
  return cycle;
}

cluster::ChaosEvent parse_chaos_event(const Json& j,
                                      double fallback_at_ms = -1.0,
                                      bool allow_cycled_budget = false) {
  cluster::ChaosEvent ev;
  ev.t = j.number_or("at_ms", fallback_at_ms);
  require(ev.t >= 0.0, "chaos event needs a non-negative at_ms");
  const std::string op = j.string_or("op", "");
  if (op == "kill") {
    ev.kind = cluster::ChaosEvent::Kind::Kill;
  } else if (op == "drain") {
    ev.kind = cluster::ChaosEvent::Kind::Drain;
  } else if (op == "revive") {
    ev.kind = cluster::ChaosEvent::Kind::Revive;
  } else if (op == "budget" || op == "budget_step") {
    ev.kind = cluster::ChaosEvent::Kind::BudgetStep;
    ev.budget = j.number_or("budget", 0.0);
    // Periodic entries may carry budget_cycle instead of a scalar; the
    // expansion validates and stamps the cycled value per firing.
    require(ev.budget > 0.0 ||
                (allow_cycled_budget && j.find("budget_cycle") != nullptr),
            "budget chaos event needs a positive budget");
    return ev;
  } else {
    require(false, "unknown chaos op \"" + op +
                       "\" (expected kill, drain, revive, or budget)");
  }
  ev.node = static_cast<int>(j.number_or("node", -1.0));
  require(ev.node >= 0, "chaos event needs a node index");
  return ev;
}

}  // namespace

ScenarioSpec parse_scenario(const Json& j) {
  require(j.is_object(), "top level must be a JSON object");
  ScenarioSpec s;
  s.name = j.string_or("name", s.name);
  s.substrate = j.string_or("substrate", s.substrate);
  require(s.substrate == "sim" || s.substrate == "vod" ||
              s.substrate == "cluster",
          "unknown substrate \"" + s.substrate +
              "\" (expected sim, vod, or cluster)");
  s.policy = j.string_or("policy", s.policy);
  require(s.policy == "des" || s.policy == "sdvfs" || s.policy == "nodvfs",
          "unknown policy \"" + s.policy +
              "\" (expected des, sdvfs, or nodvfs)");

  if (const Json* w = j.find("workload")) parse_workload(*w, s.workload);

  if (const Json* e = j.find("engine")) {
    s.cores = static_cast<int>(e->number_or("cores", s.cores));
    s.power_budget = e->number_or("power_budget", s.power_budget);
    s.quantum_ms = e->number_or("quantum_ms", s.quantum_ms);
    s.counter_trigger =
        static_cast<int>(e->number_or("counter_trigger", s.counter_trigger));
    s.idle_trigger = e->bool_or("idle_trigger", s.idle_trigger);
    s.quality_c = e->number_or("quality_c", s.quality_c);
    s.max_core_speed = e->number_or("max_core_speed", s.max_core_speed);
    s.record = e->bool_or("record", s.record);
    require(s.cores >= 1, "engine needs at least one core");
    require(s.power_budget > 0.0, "power budget must be positive");
    require(s.quality_c > 0.0, "quality_c must be positive");
    if (const Json* p = e->find("power_model")) {
      PowerModel& pm = s.power_model;
      pm.a = p->number_or("a", pm.a);
      pm.beta = p->number_or("beta", pm.beta);
      pm.b = p->number_or("b", pm.b);
      pm.sleep_enabled = p->bool_or("sleep_enabled", pm.sleep_enabled);
      pm.sleep_power = p->number_or("sleep_power", pm.sleep_power);
      pm.wake_latency_ms = p->number_or("wake_latency_ms", pm.wake_latency_ms);
      pm.wake_energy_j = p->number_or("wake_energy_j", pm.wake_energy_j);
      s.race_to_idle = p->bool_or("race_to_idle", s.race_to_idle);
      require(pm.a > 0.0 && pm.beta > 1.0,
              "power model needs a > 0 and beta > 1");
      require(pm.b >= 0.0, "static power must be non-negative");
      require(!pm.sleep_enabled || pm.b > 0.0,
              "a sleep state needs a positive static floor b to save");
      if (pm.sleep_enabled) {
        require(pm.sleep_power >= 0.0 && pm.sleep_power <= pm.b,
                "sleep draw must lie in [0, b]");
        require(pm.wake_latency_ms >= 0.0 && pm.wake_energy_j >= 0.0,
                "wake transition costs must be non-negative");
      }
    }
  }

  if (const Json* b = j.find("budget_steps")) {
    std::vector<EngineBudgetStep> periodic;
    for (const Json& e : b->as_array()) {
      if (e.find("every_s") != nullptr || e.find("every_ms") != nullptr) {
        const std::string op = e.string_or("op", "budget_step");
        require(op == "budget_step" || op == "budget",
                "sim budget_steps only support the budget_step op");
        const std::vector<double> cycle = periodic_budget_cycle(e);
        std::size_t k = 0;
        for (double t :
             periodic_firings(e, s.workload.workload.horizon_ms)) {
          periodic.push_back({t, cycle[k++ % cycle.size()]});
        }
        continue;
      }
      EngineBudgetStep step;
      step.at = e.number_or("at_ms", -1.0);
      step.budget = e.number_or("budget", 0.0);
      require(step.at >= 0.0, "budget step needs a non-negative at_ms");
      require(step.budget > 0.0, "budget step needs a positive budget");
      s.budget_steps.push_back(step);
    }
    // One-shot entries must arrive sorted (as before); expanded
    // periodic firings are merged in afterwards with a stable sort, so
    // a one-shot and a periodic firing at the same instant apply in
    // spec order.
    require(std::is_sorted(s.budget_steps.begin(), s.budget_steps.end(),
                           [](const EngineBudgetStep& a,
                              const EngineBudgetStep& b2) {
                             return a.at < b2.at;
                           }),
            "budget steps must be sorted by at_ms");
    if (!periodic.empty()) {
      s.budget_steps.insert(s.budget_steps.end(), periodic.begin(),
                            periodic.end());
      std::stable_sort(s.budget_steps.begin(), s.budget_steps.end(),
                       [](const EngineBudgetStep& a,
                          const EngineBudgetStep& b2) {
                         return a.at < b2.at;
                       });
    }
  }

  if (const Json* c = j.find("cluster")) {
    s.nodes = static_cast<int>(c->number_or("nodes", s.nodes));
    s.total_budget = c->number_or("total_budget", s.total_budget);
    s.broker_period_ms = c->number_or("broker_period_ms", s.broker_period_ms);
    s.dispatch = c->string_or("dispatch", s.dispatch);
    require(s.nodes >= 1, "cluster needs at least one node");
    require(s.broker_period_ms > 0.0, "broker period must be positive");
    require(s.dispatch == "crr" || s.dispatch == "jsq" || s.dispatch == "p2c",
            "unknown dispatch \"" + s.dispatch +
                "\" (expected crr, jsq, or p2c)");
  }

  if (const Json* c = j.find("chaos")) {
    require(s.substrate == "cluster",
            "chaos schedules require the cluster substrate "
            "(sim cells express budget steps via budget_steps)");
    std::vector<cluster::ChaosEvent> periodic;
    for (const Json& e : c->as_array()) {
      if (e.find("every_s") != nullptr || e.find("every_ms") != nullptr) {
        // Periodic chaos: parse the op once (at_ms is optional here —
        // the expansion supplies the firing times), then stamp one
        // event per firing. Budget ops may cycle budgets across
        // firings.
        const cluster::ChaosEvent proto = parse_chaos_event(
            e, /*fallback_at_ms=*/0.0, /*allow_cycled_budget=*/true);
        std::vector<double> cycle;
        if (proto.kind == cluster::ChaosEvent::Kind::BudgetStep) {
          cycle = periodic_budget_cycle(e);
        }
        std::size_t k = 0;
        for (double t :
             periodic_firings(e, s.workload.workload.horizon_ms)) {
          cluster::ChaosEvent ev = proto;
          ev.t = t;
          if (!cycle.empty()) ev.budget = cycle[k++ % cycle.size()];
          periodic.push_back(ev);
        }
        continue;
      }
      s.chaos.push_back(parse_chaos_event(e));
    }
    require(
        std::is_sorted(s.chaos.begin(), s.chaos.end(),
                       [](const cluster::ChaosEvent& a,
                          const cluster::ChaosEvent& b) { return a.t < b.t; }),
        "chaos events must be sorted by at_ms");
    if (!periodic.empty()) {
      s.chaos.insert(s.chaos.end(), periodic.begin(), periodic.end());
      std::stable_sort(s.chaos.begin(), s.chaos.end(),
                       [](const cluster::ChaosEvent& a,
                          const cluster::ChaosEvent& b) { return a.t < b.t; });
    }
  }

  if (const Json* v = j.find("vod")) {
    s.vod_mean_chunks = v->number_or("mean_chunks", s.vod_mean_chunks);
    s.vod_chunk_period_ms =
        v->number_or("chunk_period_ms", s.vod_chunk_period_ms);
    require(s.vod_mean_chunks > 0.0 && s.vod_chunk_period_ms > 0.0,
            "vod session parameters must be positive");
  }

  s.compare_opt = j.bool_or("compare_opt", s.compare_opt);
  const bool kills = std::any_of(
      s.chaos.begin(), s.chaos.end(), [](const cluster::ChaosEvent& ev) {
        return ev.kind == cluster::ChaosEvent::Kind::Kill;
      });
  require(!(s.compare_opt && s.substrate == "cluster" && kills),
          "compare_opt is undefined for cells that kill a node (kills "
          "rewrite the job set)");
  return s;
}

ScenarioSpec parse_scenario_text(const std::string& text) {
  return parse_scenario(Json::parse(text));
}

ScenarioSpec load_scenario_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("scenario spec: cannot read " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_scenario_text(buf.str());
}

}  // namespace qes::scenario
