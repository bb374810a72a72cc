// Replan kernel latency: what does one DesPlanner::plan_c_dvfs cost at
// 8 / 32 / 128 ready jobs (8 cores), and does the steady-state
// view-refill path really stay off the heap?
//
// Every replan is timed end to end and through the kernel's own phase
// histograms (qes_replan_phase_ms{plane="bench"}), so the printed
// per-phase means are exactly what a live scrape of any plane reports.
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
//  - the full replan after warmup performs ZERO allocations: the planner
//    runs every sub-algorithm through its scratch (*_into) variant. Its
//    lock count is only reported, because the phase histograms take an
//    internal mutex per record.
// ctest runs this binary as the test `replan_kernel`.
#include <dlfcn.h>
#include <pthread.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
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

int main() {
  using namespace qes;
  using clock = std::chrono::steady_clock;

  constexpr std::size_t kCores = 8;
  constexpr int kReplans = 2000;
  constexpr int kWarmup = 16;
  // Virtual time between consecutive replans' views (1 µs): small next
  // to the 50 ms first deadline, so every replan plans the same load.
  constexpr Time kNowStepMs = 0.001;
  const PowerModel pm = default_power_model();

  std::printf("=== DES replan kernel latency ===\n");
  std::printf("setup: %zu cores, %d replans per load level, "
              "budget at half the budget-free request\n\n",
              kCores, kReplans);

  obs::Registry registry;
  policy::DesPlanner planner(&registry, "bench");
  policy::WorldView view;
  policy::PlanOutcome out;

  // Steady-state refill: the head job on each core carries prior
  // volume, deadlines are agreeable, demands cycle through a small set
  // so Quality-OPT sees unequal marginal qualities.
  auto refill = [&](std::size_t jobs_per_core, Watts budget, Time now) {
    view.reset(now, budget, kCores);
    view.power_model = &pm;
    JobId id = 1;
    for (std::size_t c = 0; c < kCores; ++c) {
      for (std::size_t k = 0; k < jobs_per_core; ++k) {
        view.cores[c].jobs.push_back(policy::ViewJob{
            .id = id++,
            .deadline = 50.0 + 25.0 * static_cast<double>(k),
            .demand = 20.0 + 7.0 * static_cast<double>((k + c) % 5),
            .processed = k == 0 ? 4.0 : 0.0});
      }
    }
  };

  bool refill_clean = true;
  bool lock_clean = true;
  bool replan_clean = true;
  std::printf("%-12s %10s %10s %14s %14s %13s %13s\n", "ready_jobs",
              "mean_us", "best_us", "refill_allocs", "refill_locks",
              "replan_allocs", "replan_locks");

  for (const std::size_t jobs_per_core : {1u, 4u, 16u}) {
    const std::size_t ready = kCores * jobs_per_core;
    // Pin the budget at half the budget-free request so every replan
    // walks the full pipeline (YDS -> WF -> bounded Online-QE) instead
    // of the all-fits fast path.
    refill(jobs_per_core, 1.0, 0.0);
    const Watts budget = 0.5 * planner.total_power_request(view);

    double total_ms = 0.0;
    double best_ms = 1e300;
    std::uint64_t refill_allocs = 0;
    std::uint64_t refill_locks = 0;
    std::uint64_t replan_allocs = 0;
    std::uint64_t replan_locks = 0;
    for (int r = 0; r < kWarmup + kReplans; ++r) {
      const std::uint64_t a0 = alloc_count();
      const std::uint64_t l0 = lock_count();
      refill(jobs_per_core, budget, kNowStepMs * static_cast<double>(r + 1));
      out.reset(kCores);
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
      const double ms =
          std::chrono::duration<double, std::milli>(t1 - t0).count();
      total_ms += ms;
      if (ms < best_ms) best_ms = ms;
    }
    if (refill_allocs != 0) refill_clean = false;
    if (refill_locks != 0) lock_clean = false;
    if (replan_allocs != 0) replan_clean = false;
    std::printf("%-12zu %10.2f %10.2f %14llu %14llu %13.1f %13.1f\n", ready,
                1e3 * total_ms / kReplans, 1e3 * best_ms,
                static_cast<unsigned long long>(refill_allocs),
                static_cast<unsigned long long>(refill_locks),
                static_cast<double>(replan_allocs) / kReplans,
                static_cast<double>(replan_locks) / kReplans);
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

  std::printf("\nsteady-state view refill %s the heap and %s\n",
              refill_clean ? "never touches" : "ALLOCATES ON",
              lock_clean ? "takes no mutex locks" : "TAKES MUTEX LOCKS");
  std::printf("steady-state replan %s the heap\n",
              replan_clean ? "never touches" : "ALLOCATES ON");
  return (refill_clean && lock_clean && replan_clean) ? 0 : 1;
}
