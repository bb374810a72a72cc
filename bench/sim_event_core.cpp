// Event-core throughput and the steady-state allocation gate.
//
// The calendar-queue engine (src/sim/event_queue.hpp + sim/engine.cpp)
// plus the scratch-based replan kernel promise that a long simulation's
// heap traffic is a warm-up high-water mark, NOT per-event or per-job
// work. This bench checks that promise differentially: the same diurnal
// workload shape is simulated for 1x and 4x the horizon (so ~4x the
// jobs), and the global operator-new COUNT may grow only by a small
// constant between the two (hard gate, exit 1 on violation) — millions
// of extra jobs, effectively zero extra allocations. It runs in well
// under a second, so ctest runs it too (test `sim_event_core`).
//
// It also reports the raw event-core throughput (events and jobs per
// wall second) that scripts/record_bench.sh's scenario section tracks.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "multicore/des_scheduler.hpp"
#include "sim/engine.hpp"
#include "workload/generator.hpp"

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

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

struct CellResult {
  std::size_t jobs = 0;
  std::uint64_t events = 0;
  std::uint64_t replans = 0;
  std::uint64_t allocs = 0;  // engine construction + full run
  double wall_s = 0.0;
};

// One diurnal cell with the long-run recording knobs off — the same
// shape scenarios/diurnal_10m.json scales up to the 10M-job day.
CellResult run_cell(double horizon_s) {
  using namespace qes;
  using clock = std::chrono::steady_clock;

  DiurnalConfig dc;
  dc.base_rate = 240.0;
  dc.amplitude = 0.6;
  dc.period_ms = 60'000.0;
  dc.horizon_ms = horizon_s * 1000.0;
  dc.seed = 7;
  std::vector<Job> jobs = generate_diurnal_jobs(dc);

  EngineConfig cfg;
  cfg.cores = 16;
  cfg.quantum_ms = 100.0;
  cfg.counter_trigger = 8;
  cfg.idle_trigger = false;
  cfg.record_execution = false;
  cfg.record_replan_times = false;

  CellResult r;
  r.jobs = jobs.size();
  const std::uint64_t a0 = alloc_count();
  const auto t0 = clock::now();
  Engine eng(cfg, std::move(jobs), make_des_policy());
  const RunResult res = eng.run();
  r.wall_s = std::chrono::duration<double>(clock::now() - t0).count();
  r.allocs = alloc_count() - a0;
  r.events = eng.events_processed();
  r.replans = static_cast<std::uint64_t>(res.stats.replans);
  return r;
}

}  // namespace

int main() {
  std::printf("=== sim event core: throughput + steady-state allocs ===\n");
  std::printf("setup: 16 cores, diurnal 240 req/s +-60%%, quantum 100 ms, "
              "counter trigger 8, recording off\n\n");

  (void)run_cell(10.0);  // warm up code paths outside the comparison

  const CellResult a = run_cell(60.0);
  const CellResult b = run_cell(240.0);

  for (const auto& [tag, c] : {std::pair{" 60 s", a}, std::pair{"240 s", b}}) {
    std::printf("%s horizon: %8zu jobs  %9llu events  %6llu replans  "
                "%7.3f s wall  %9.0f events/s  %8llu allocs\n",
                tag, c.jobs, static_cast<unsigned long long>(c.events),
                static_cast<unsigned long long>(c.replans), c.wall_s,
                static_cast<double>(c.events) / c.wall_s,
                static_cast<unsigned long long>(c.allocs));
  }

  const std::uint64_t extra_allocs = b.allocs > a.allocs
                                         ? b.allocs - a.allocs
                                         : 0;
  const std::size_t extra_jobs = b.jobs - a.jobs;
  std::printf("\n4x horizon delta: +%zu jobs, +%llu allocations\n",
              extra_jobs, static_cast<unsigned long long>(extra_allocs));

  // Hard gate: heap traffic must be a high-water phenomenon. A per-job
  // or per-event allocation would add ~extra_jobs (tens of thousands)
  // allocations here; genuine high-water growth (calendar-queue bucket
  // doubling, a deeper transient backlog) stays far under this bound.
  constexpr std::uint64_t kAllocSlack = 2048;
  if (extra_allocs > kAllocSlack) {
    std::printf("FAIL: steady-state loop allocated (+%llu allocs > %llu "
                "for 4x the jobs)\n",
                static_cast<unsigned long long>(extra_allocs),
                static_cast<unsigned long long>(kAllocSlack));
    return 1;
  }
  std::printf("PASS: steady-state event loop + replans stay off the heap\n");
  return 0;
}
