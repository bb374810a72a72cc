// Quality-OPT (a.k.a. Tians-OPT, He et al. ICDCS'11; paper §III-A):
// maximum-total-quality scheduling of best-effort jobs on a single core
// running at a FIXED speed.
//
// The algorithm repeatedly finds the *busiest deprived interval* — the
// interval I minimizing the d-mean p~(I), i.e. the water-fill level of the
// demands of the jobs contained in I given capacity s * |I| — satisfies
// the small jobs in it, grants every deprived job the d-mean volume,
// compresses the interval out of the timeline and recurses. Because all
// jobs share one concave quality function, equalizing deprived volumes is
// optimal.
//
// The search is incremental. Agreeable deadlines make the jobs contained
// in [r_a, d_b] the contiguous range a..b of the ordered list, so for each
// start a it grows the end b one job at a time: the new job's two
// breakpoints go into sorted start and end lists, the all-fit test reads
// a running sum, and only the level is swept (waterfill_sweep_level, the
// water-fill's own sweep). The winning interval alone gets the full
// water-fill with its per-job volumes. Per round that is O(n^2)
// candidates at O(n) each.
#pragma once

#include <span>
#include <vector>

#include "alloc/waterfill.hpp"
#include "core/job.hpp"
#include "core/quality.hpp"
#include "core/schedule.hpp"

namespace qes {

struct QualityOptResult {
  /// Granted processing volume per job, aligned with the sorted set.
  std::vector<Work> volumes;
  /// FIFO/EDF timetable executing the volumes at the fixed speed.
  Schedule schedule;
};

/// Runs Quality-OPT on `set` with fixed core speed `speed` (GHz).
[[nodiscard]] QualityOptResult quality_opt_schedule(const AgreeableJobSet& set,
                                                    Speed speed);

/// Baseline-aware generalization (used by the "resume" execution-model
/// ablation): `baselines[k]` is the volume job k already received before
/// its current window. Interval capacities cover only the window, but the
/// water level equalizes baseline + new volume, so previously served jobs
/// yield to starved ones. `volumes` returns the NEW volume only.
[[nodiscard]] QualityOptResult quality_opt_schedule(
    const AgreeableJobSet& set, Speed speed, std::span<const Work> baselines);

/// Sum of f(volume) over jobs; `volumes` aligned with the sorted set.
[[nodiscard]] double total_quality(std::span<const Work> volumes,
                                   const QualityFunction& f);

/// Reusable buffers for the scratch variant (implementation detail;
/// keep one alive across calls).
struct QualityOptScratch {
  struct Window {
    Time r;
    Time d;
    Work w;     // full demand
    Work base;  // volume already received before the window
    bool active;
  };
  std::vector<Window> win;
  std::vector<std::size_t> act;
  // The search's sorted breakpoint lists for the current start.
  std::vector<Work> starts;
  std::vector<Work> ends;
  std::vector<Work> caps;
  std::vector<Work> bases;
  std::vector<std::size_t> contained;
  WaterfillScratch wf_scratch;
  WaterfillResult wf;
};

/// quality_opt_schedule over `jobs`, writing into `out` and drawing
/// temporaries from `scratch` (zero-allocation steady state). `jobs` must
/// already be what an AgreeableJobSet holds — (release, deadline, id)
/// order, agreeable, non-negative demands, positive windows — which
/// assert_agreeable_order checks; `baselines` and `volumes` align with it.
void quality_opt_into(std::span<const Job> jobs, Speed speed,
                      std::span<const Work> baselines,
                      QualityOptScratch& scratch, QualityOptResult& out);

}  // namespace qes
