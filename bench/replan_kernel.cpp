// Replan kernel latency: what does one DesPlanner::plan_c_dvfs cost at
// 8 / 32 / 128 ready jobs (8 cores), and does the steady-state
// view-refill path really stay off the heap?
//
// Three tables. The first plans with the paper's b = 0 model under a
// budget at half the budget-free request, so every replan walks the
// full pipeline (YDS -> WF -> bounded Online-QE). The second plans with
// the overnight_trough model (b = 2 W, a sleep state) under a budget
// twice the request, so every replan takes the all-fits fast path and
// runs race-to-idle on each core: the path the lockstep cluster spends
// its planner time on. Its rows are labelled race/<ready_jobs>. The
// third is shaped like sim_diurnal: 64 cores, b = 0, H binding, so WF
// splits 64 requests and Online-QE runs on every core. A per-core skew
// keeps the 64 requests distinct, so WF takes one round per core below
// its level, and each replan deals the skews to the cores in a new
// order, so which cores a round satisfies changes from replan to replan
// as it does under sim_diurnal's arrivals. The budget sits at 0.9 of the
// request, which gives WF about 38 rounds a call, as sim_diurnal's 64
// cores take about 37 (at half the request it would take about 5); with
// the first table's 8 cores WF costs too little to read. Its rows are
// labelled 64c/<ready_jobs>.
//
// Every replan is timed end to end and through the kernel's own phase
// histograms (qes_replan_phase_ms{plane="bench"}, one registry per
// table), so the printed per-phase means are exactly what a live scrape
// of any plane reports.
// Each replan's view sits kNowStepMs later than the previous one's, as
// consecutive replans do in every plane: an identical view would let
// the planner's step-2 memo (see des_planner.hpp) answer from the last
// replan, and the yds phase would time a cache hit instead of YDS.
// A global operator-new counter and a pthread_mutex_lock interposer
// check the scratch contracts (hard gates, exit 1 on violation):
//  - refilling the WorldView and resetting the PlanOutcome after warmup
//    performs ZERO allocations and takes ZERO mutex locks — the same
//    steady-state discipline the runq pacing workers are gated on in
//    bench/e2e_latency;
//  - the full replan after warmup performs ZERO allocations, in both
//    tables: the planner runs every sub-algorithm through its scratch
//    (*_into) variant. Its lock count is only reported, because the
//    phase histograms take an internal mutex per record.
// The race table must also race (some core parks after its plan), or
// its allocation gate would not cover race-to-idle.
// ctest runs this binary as the test `replan_kernel`.
#include <dlfcn.h>
#include <pthread.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/power.hpp"
#include "core/quality.hpp"
#include "obs/registry.hpp"
#include "policy/des_planner.hpp"
#include "policy/world_view.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

std::uint64_t alloc_count() {
  return g_allocs.load(std::memory_order_relaxed);
}

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

std::atomic<std::uint64_t> g_mutex_locks{0};

std::uint64_t lock_count() {
  return g_mutex_locks.load(std::memory_order_relaxed);
}

}  // namespace

// Count every pthread_mutex_lock in the process and forward to the real
// implementation (libc's, via RTLD_NEXT). std::mutex::lock and
// condition_variable waits on glibc all land here, so a zero delta over
// a region really means "took no locks".
extern "C" int pthread_mutex_lock(pthread_mutex_t* m) {
  using Fn = int (*)(pthread_mutex_t*);
  static Fn real =
      reinterpret_cast<Fn>(dlsym(RTLD_NEXT, "pthread_mutex_lock"));
  g_mutex_locks.fetch_add(1, std::memory_order_relaxed);
  return real(m);
}

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace qes;

constexpr int kReplans = 2000;
constexpr int kWarmup = 16;
// Virtual time between consecutive replans' views (1 µs): small next
// to the 50 ms first deadline, so every replan plans the same load.
constexpr Time kNowStepMs = 0.001;

/// One table: a core count, a power model, a demand scale and the
/// budget as a multiple of the budget-free request.
struct Table {
  const char* label_prefix;  // row label = prefix + ready jobs
  std::size_t cores;
  const PowerModel* pm;
  double demand_scale;
  double budget_factor;
  // Added to core c's demands at replan r as core_skew * ((37 c + 11 r)
  // mod cores), a new permutation of the skews per replan (0 keeps the
  // 8-core tables' original loads).
  double core_skew = 0.0;
};

/// What a table's gates saw.
struct TableGates {
  bool refill_clean = true;
  bool lock_clean = true;
  bool replan_clean = true;
  bool raced = false;
};

TableGates run_table(const Table& table) {
  using clock = std::chrono::steady_clock;
  obs::Registry registry;
  policy::DesPlanner planner(&registry, "bench");
  policy::WorldView view;
  policy::PlanOutcome out;

  // Steady-state refill: the head job on each core carries prior
  // volume, deadlines are agreeable, demands cycle through a small set
  // so Quality-OPT sees unequal marginal qualities.
  const std::size_t cores = table.cores;
  auto refill = [&](std::size_t jobs_per_core, Watts budget, int r) {
    const Time now = kNowStepMs * static_cast<double>(r);
    view.reset(now, budget, cores);
    view.power_model = table.pm;
    JobId id = 1;
    for (std::size_t c = 0; c < cores; ++c) {
      for (std::size_t k = 0; k < jobs_per_core; ++k) {
        view.cores[c].jobs.push_back(policy::ViewJob{
            .id = id++,
            .deadline = 50.0 + 25.0 * static_cast<double>(k),
            .demand = table.demand_scale *
                      (20.0 + 7.0 * static_cast<double>((k + c) % 5) +
                       table.core_skew *
                           static_cast<double>(
                               (37 * c + 11 * static_cast<std::size_t>(r)) %
                               cores)),
            .processed = k == 0 ? 4.0 * table.demand_scale : 0.0});
      }
    }
  };

  // Only a model with a sleep state races; the b = 0 table keeps its
  // original columns.
  const bool races = table.pm->has_sleep();
  TableGates gates;
  std::printf("%-12s %10s %10s %14s %14s %13s %13s", "ready_jobs", "mean_us",
              "best_us", "refill_allocs", "refill_locks", "replan_allocs",
              "replan_locks");
  if (races) std::printf(" %12s", "raced_cores");
  std::printf("\n");

  for (const std::size_t jobs_per_core : {1u, 4u, 16u}) {
    const std::size_t ready = cores * jobs_per_core;
    refill(jobs_per_core, 1.0, 0);
    const Watts budget =
        table.budget_factor * planner.total_power_request(view);

    double total_ms = 0.0;
    double best_ms = 1e300;
    std::uint64_t refill_allocs = 0;
    std::uint64_t refill_locks = 0;
    std::uint64_t replan_allocs = 0;
    std::uint64_t replan_locks = 0;
    std::uint64_t raced = 0;
    for (int r = 0; r < kWarmup + kReplans; ++r) {
      const std::uint64_t a0 = alloc_count();
      const std::uint64_t l0 = lock_count();
      refill(jobs_per_core, budget, r + 1);
      out.reset(cores);
      const std::uint64_t a1 = alloc_count();
      const std::uint64_t l1 = lock_count();
      const auto t0 = clock::now();
      planner.plan_c_dvfs(view, policy::PlanOptions{}, out);
      const auto t1 = clock::now();
      if (r < kWarmup) continue;
      refill_allocs += a1 - a0;
      refill_locks += l1 - l0;
      replan_allocs += alloc_count() - a1;
      replan_locks += lock_count() - l1;
      for (const policy::CoreOutcome& c : out.cores) raced += c.sleep_after;
      const double ms =
          std::chrono::duration<double, std::milli>(t1 - t0).count();
      total_ms += ms;
      if (ms < best_ms) best_ms = ms;
    }
    if (refill_allocs != 0) gates.refill_clean = false;
    if (refill_locks != 0) gates.lock_clean = false;
    if (replan_allocs != 0) gates.replan_clean = false;
    if (raced != 0) gates.raced = true;
    const std::string label = table.label_prefix + std::to_string(ready);
    std::printf("%-12s %10.2f %10.2f %14llu %14llu %13.1f %13.1f",
                label.c_str(), 1e3 * total_ms / kReplans, 1e3 * best_ms,
                static_cast<unsigned long long>(refill_allocs),
                static_cast<unsigned long long>(refill_locks),
                static_cast<double>(replan_allocs) / kReplans,
                static_cast<double>(replan_locks) / kReplans);
    if (races) std::printf(" %12.2f", static_cast<double>(raced) / kReplans);
    std::printf("\n");
  }

  std::printf("\nper-phase means from qes_replan_phase_ms{plane=\"bench\"} "
              "(all load levels pooled):\n");
  for (const char* phase : {"yds", "wf", "online_qe"}) {
    const obs::Histogram* h = registry.find_histogram(
        policy::kReplanPhaseMetric, {{"plane", "bench"}, {"phase", phase}});
    if (h == nullptr || h->count() == 0) continue;
    std::printf("  %-10s %10.2f us over %llu replans\n", phase,
                1e3 * h->sum() / static_cast<double>(h->count()),
                static_cast<unsigned long long>(h->count()));
  }
  return gates;
}

}  // namespace

int main() {
  const PowerModel b0 = default_power_model();
  // The overnight_trough scenario's model (scenarios/overnight_trough.json).
  PowerModel trough = default_power_model();
  trough.b = 2.0;
  trough.sleep_enabled = true;
  trough.sleep_power = 0.2;
  trough.wake_latency_ms = 1.0;
  trough.wake_energy_j = 0.05;

  std::printf("=== DES replan kernel latency ===\n");
  std::printf("setup: %d cores, %d replans per load level, "
              "budget at half the budget-free request\n\n",
              8, kReplans);
  // Pin the budget at half the budget-free request so every replan
  // walks the full pipeline (YDS -> WF -> bounded Online-QE) instead
  // of the all-fits fast path.
  const TableGates full = run_table({"", 8, &b0, 1.0, 0.5});

  // A quarter of the demands keeps every step-2 speed near or below
  // the trough model's critical speed (0.6 GHz), so cores have an idle
  // gap worth racing for.
  std::printf("\nrace-to-idle: overnight_trough model (b = 2 W, sleep "
              "0.2 W, 1 ms / 0.05 J wake), demands / 4, budget twice the "
              "budget-free request (fast path); raced_cores = cores parked "
              "per replan\n");
  const TableGates race = run_table({"race/", 8, &trough, 0.25, 2.0});

  // sim_diurnal's shape: 64 cores at b = 0 with H binding. A 0.37 skew
  // per core spreads the 64 requests over distinct values.
  std::printf("\n64 cores: b = 0 model, budget at 0.9 of the budget-free "
              "request, demands + 0.37 x core index\n");
  const TableGates wide = run_table({"64c/", 64, &b0, 1.0, 0.9, 0.37});

  const bool refill_clean =
      full.refill_clean && race.refill_clean && wide.refill_clean;
  const bool lock_clean = full.lock_clean && race.lock_clean && wide.lock_clean;
  const bool replan_clean =
      full.replan_clean && race.replan_clean && wide.replan_clean;
  std::printf("\nsteady-state view refill %s the heap and %s\n",
              refill_clean ? "never touches" : "ALLOCATES ON",
              lock_clean ? "takes no mutex locks" : "TAKES MUTEX LOCKS");
  std::printf("steady-state replan %s the heap (b = 0 table), %s the heap "
              "(race table), %s the heap (64-core table)\n",
              full.replan_clean ? "never touches" : "ALLOCATES ON",
              race.replan_clean ? "never touches" : "ALLOCATES ON",
              wide.replan_clean ? "never touches" : "ALLOCATES ON");
  if (!race.raced) std::printf("race table NEVER RACED: its gate is vacuous\n");
  return (refill_clean && lock_clean && replan_clean && race.raced) ? 0 : 1;
}
