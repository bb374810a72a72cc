#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

// A step sustains its rate while fewer than this share of its windows
// miss the p99 limit (see StepVerdict::missed_frac).
constexpr double kMaxMissedFrac = 0.5;
// Backlog test: the last third's median latency may exceed the first
// third's by this factor plus this slack before the backlog counts as
// growing.
constexpr double kBacklogFactor = 1.25;
constexpr double kBacklogSlackMs = 0.25;
// A step whose median driver send lag exceeds this is invalid: the
// generator, not the server, set its pace. (Its p99 is not used: on a
// shared host every thread, the driver's too, sees ms-scale stalls.)
constexpr double kMaxSendLagP50Ms = 1.0;

}  // namespace

std::optional<double> exact_percentile(std::vector<double>& samples,
                                       double q) {
  const std::size_t n = samples.size();
  if (n == 0 || !(q > 0.0 && q < 1.0)) return std::nullopt;
  // Nearest rank: the ceil(q*n)-th smallest sample (1-based).
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < kMinSamplesBeyond) return std::nullopt;
  auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return *nth;
}

double median(std::vector<double> values) {
  const std::size_t n = values.size();
  if (n == 0) return 0.0;
  std::sort(values.begin(), values.end());
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::size_t count_missed(const std::vector<double>& window_p99) {
  return static_cast<std::size_t>(
      std::count_if(window_p99.begin(), window_p99.end(),
                    [](double p) { return !(p <= kP99LimitMs); }));
}

StepVerdict judge_step(const StepSummary& s) {
  StepVerdict v;
  v.invalid = s.windows == 0 || s.send_lag_p50_ms > kMaxSendLagP50Ms;
  if (s.windows > 0) {
    v.missed_frac = static_cast<double>(s.missed_windows) /
                    static_cast<double>(s.windows);
  }
  v.backlog_grew =
      s.last_p50_ms > s.first_p50_ms * kBacklogFactor + kBacklogSlackMs;
  const bool missed = v.missed_frac >= kMaxMissedFrac;
  if (missed) v.why += "p99>limit-in-most-windows ";
  if (v.backlog_grew) v.why += "backlog-grew ";
  if (v.invalid) v.why += "invalid(driver-lag-or-no-windows) ";
  if (!v.why.empty()) v.why.pop_back();
  v.pass = !missed && !v.backlog_grew && !v.invalid;
  return v;
}

void check_steady_step(const StepVerdict& v, Outcome& out) {
  out.check(!v.invalid && !v.backlog_grew,
            "the steady step is valid and its backlog did not grow (" +
                v.why + ")");
}

Capacity interpolate_capacity(const std::vector<StepSummary>& steps,
                              const std::vector<StepVerdict>& verdicts) {
  Capacity c;
  const std::size_t n = std::min(steps.size(), verdicts.size());
  if (n == 0) return c;
  std::size_t first_fail = n;
  for (std::size_t i = 0; i < n; ++i) {
    if (!verdicts[i].pass) {
      first_fail = i;
      break;
    }
  }
  if (first_fail == n) {
    c.rps = steps[n - 1].rate;
    c.censored = true;
    return c;
  }
  const StepVerdict& fail = verdicts[first_fail];
  const double f_fail =
      fail.missed_frac >= kMaxMissedFrac ? fail.missed_frac : 1.0;
  const double r_fail = steps[first_fail].rate;
  const double r_pass = first_fail > 0 ? steps[first_fail - 1].rate : 0.0;
  const double f_pass = first_fail > 0 ? verdicts[first_fail - 1].missed_frac
                                       : 0.0;
  c.rps = r_pass +
          (r_fail - r_pass) * (kMaxMissedFrac - f_pass) / (f_fail - f_pass);
  return c;
}

}  // namespace perfbench
