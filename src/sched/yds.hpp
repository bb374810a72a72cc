// Energy-OPT: the YDS minimum-energy speed-scaling algorithm
// (Yao, Demers, Shenker FOCS'95; paper §III-A).
//
// Given an agreeable job set that must be fully completed, YDS repeatedly
// extracts the *critical interval* I* maximizing the intensity
// g(I) = sum_{[r,d] subseteq I} w / |I|, runs its jobs at speed g(I*), and
// compresses the timeline. Because the dynamic power a*s^beta is convex,
// the resulting speeds minimize total energy among all feasible schedules.
//
// With agreeable deadlines the final timetable is simply EDF (== FIFO)
// with each job executed at its assigned speed, non-preemptively.
#pragma once

#include <span>
#include <vector>

#include "core/job.hpp"
#include "core/schedule.hpp"

namespace qes {

struct YdsResult {
  /// Per-job speeds, aligned with the sorted order of the input set.
  std::vector<Speed> speeds;
  /// The executable timetable (EDF at the per-job speeds).
  Schedule schedule;
  /// Speed of the first critical interval == max speed in the schedule.
  Speed critical_speed = 0.0;
};

/// Computes the YDS schedule for `set`. Every job is completed in full by
/// its deadline; jobs with zero demand are skipped. Each round scans the
/// O(n^2) candidate intervals with O(1) intensities from a prefix sum
/// over the active jobs, and removes at least one job, so O(n^3) worst
/// case; with one common release (every online call) only the first
/// start survives the tie skip and a round costs O(n).
[[nodiscard]] YdsResult yds_schedule(const AgreeableJobSet& set);

/// yds_schedule with a speed cap for callers whose demands were sized to
/// fit `max_speed` exactly (QE-OPT step 2, Online-QE, DES step 4).
/// Floating-point drift amplified by tiny windows can push the critical
/// speed marginally past the cap; because YDS speeds are homogeneous of
/// degree 1 in the demands, one uniform down-scale restores feasibility
/// exactly. A required rescale beyond `max_rel_excess` means the input
/// was genuinely infeasible and aborts.
[[nodiscard]] YdsResult yds_schedule_capped(const AgreeableJobSet& set,
                                            Speed max_speed,
                                            double max_rel_excess = 1e-4);

/// Reusable buffers for the scratch variants (contents are an
/// implementation detail; keep one alive across calls).
struct YdsScratch {
  struct Window {
    Time r;
    Time d;
    Work w;
    bool active;
  };
  std::vector<Window> win;
  std::vector<std::size_t> act;
  std::vector<Work> prefix;
  std::vector<Job> scaled;
};

/// yds_schedule over `jobs`, writing into `out` and drawing temporaries
/// from `scratch` (zero-allocation steady state). `jobs` must already be
/// what an AgreeableJobSet holds — (release, deadline, id) order,
/// agreeable, non-negative demands, positive windows — which
/// assert_agreeable_order checks. `speeds` align with `jobs`.
void yds_schedule_into(std::span<const Job> jobs, YdsScratch& scratch,
                       YdsResult& out);

/// Scratch variant of yds_schedule_capped, on the same span contract.
void yds_schedule_capped_into(std::span<const Job> jobs, Speed max_speed,
                              YdsScratch& scratch, YdsResult& out,
                              double max_rel_excess = 1e-4);

/// Energy of the YDS allocation under `pm` — depends only on per-job
/// speeds and demands, not on segment placement:
///   E = sum_j (w_j / s_j) * a * s_j^beta / 1000.
[[nodiscard]] Joules yds_energy(const AgreeableJobSet& set,
                                const YdsResult& result,
                                const PowerModel& pm);

}  // namespace qes
