// Weighted quality scheduling (extension): differentiated service
// classes.
//
// The paper assumes every request shares one quality function; real
// services weight customers (premium vs regular, paid SLAs). This module
// generalizes Quality-OPT to maximize sum_j omega_j * f(p_j): the
// busiest-deprived-interval recursion survives, but the interval
// allocation becomes KKT water-filling on MARGINALS — each interval's
// pressure is its optimal multiplier lambda(I), and the interval with the
// HIGHEST lambda is allocated first (for equal weights lambda = f'(level)
// is monotone in the d-mean, so this reduces exactly to Quality-OPT).
#pragma once

#include <span>
#include <vector>

#include "core/job.hpp"
#include "core/quality.hpp"
#include "core/schedule.hpp"

namespace qes {

struct WeightedQualityResult {
  /// Granted (and executable) volumes, aligned with the sorted set.
  std::vector<Work> volumes;
  /// FIFO timetable at the fixed speed.
  Schedule schedule;
  /// Weighted total quality sum_j omega_j f(p_j).
  double weighted_quality = 0.0;
  /// True when the FIFO repair had to truncate some allocation: unlike
  /// the unweighted case, max-lambda interval ordering does not
  /// guarantee prefix feasibility (a capacity-tight sub-interval holding
  /// only low-weight jobs can be out-prioritized), so volumes that
  /// cannot execute by their deadlines are clipped.
  bool truncated = false;
};

/// Runs the weighted generalization of Quality-OPT on `jobs` at fixed
/// `speed`. `jobs` must be what an AgreeableJobSet holds (offline callers
/// pass set.jobs()); assert_agreeable_order checks it. `weights` are
/// per-job, aligned with `jobs`, all positive. `f` is the shared concave
/// quality shape. Optional `baselines` (same alignment) hold volume
/// already received; `volumes` then returns the NEW volume per job and
/// the objective counts f(baseline + new).
[[nodiscard]] WeightedQualityResult weighted_quality_opt_schedule(
    std::span<const Job> jobs, Speed speed, std::span<const double> weights,
    const QualityFunction& f, std::span<const Work> baselines = {});

}  // namespace qes
