// Pure statistics for the benchmark: exact percentiles over raw samples,
// medians, and the wire ladder's step verdict and capacity estimate.
// Nothing here touches the clock or the system under test, so the
// benchmark's own tests cover it on synthetic data.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "report.hpp"

namespace perfbench {

/// Samples a percentile must have strictly above it before it may be
/// reported: a p99 needs at least 1000 samples, a p50 at least 20.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Exact nearest-rank percentile (q in (0, 1)): the smallest sample with
/// at least q of the samples at or below it. Returns nullopt when fewer
/// than kMinSamplesBeyond samples lie beyond that rank. Reorders
/// `samples`.
[[nodiscard]] std::optional<double> exact_percentile(
    std::vector<double>& samples, double q);

/// Median of `values` (mean of the middle pair for even counts); 0 for
/// an empty vector.
[[nodiscard]] double median(std::vector<double> values);

/// A ladder window meets the latency limit when its exact p99 is at most
/// this, a shed request counting as a miss, so a window that sheds more
/// than 1 % misses.
inline constexpr double kP99LimitMs = 25.0;

/// What one ladder step measured, after its warm-up.
struct StepSummary {
  double rate = 0.0;        ///< offered req/s
  std::size_t sent = 0;     ///< every request of the step
  std::size_t shed = 0;     ///< shed or lost, every request of the step
  double p50_ms = 0.0;      ///< exact, over every measured request
  double p99_ms = 0.0;      ///< median of the windows' exact p99s
  std::size_t samples = 0;  ///< latency samples behind p50 and p99
  std::size_t windows = 0;  ///< windows behind p99
  std::size_t missed_windows = 0;  ///< windows whose p99 misses the limit
  double first_p50_ms = 0.0, last_p50_ms = 0.0;  ///< thirds of the step
  double send_lag_p50_ms = 0.0;
  double send_lag_p99_ms = 0.0;
};

/// Windows whose p99 (shed requests as misses) exceeds kP99LimitMs.
[[nodiscard]] std::size_t count_missed(const std::vector<double>& window_p99);

struct StepVerdict {
  bool pass = false;
  /// Share of the step's windows that miss the p99 limit. A step
  /// sustains its rate while fewer than half miss: host stalls spoil a
  /// window here and there, an overload spoils them all. The capacity
  /// interpolation runs on it.
  double missed_frac = 1.0;
  bool backlog_grew = false;
  bool invalid = false;  ///< driver lag or no windows
  std::string why;       ///< failing conditions, empty on a pass
};

/// Judges a step: sustained when fewer than half its windows miss
/// kP99LimitMs, its backlog did not grow (the last third's median latency
/// is at most 1.25 x the first third's + 0.25 ms) and it is valid (median
/// driver send lag at most 1 ms).
[[nodiscard]] StepVerdict judge_step(const StepSummary& s);

/// The steady step's figures are gated, so they are reported only from a
/// valid step whose backlog did not grow: fails `out` otherwise. Missed
/// windows alone do not fail it; they show as worse latency.
void check_steady_step(const StepVerdict& v, Outcome& out);

struct Capacity {
  double rps = 0.0;
  /// Every step passed: the capacity is at least the top rate.
  bool censored = false;
};

/// Highest sustained rate: the rate at which the missed-window share
/// crosses one half, interpolated linearly between the last passing
/// step and the first failing one (taken as wholly missed when it failed
/// on its backlog or driver lag alone). Steps are in increasing rate
/// order and the ladder stops at the first failure. When even the first
/// step fails, the crossing is interpolated from zero load.
[[nodiscard]] Capacity interpolate_capacity(
    const std::vector<StepSummary>& steps,
    const std::vector<StepVerdict>& verdicts);

}  // namespace perfbench
