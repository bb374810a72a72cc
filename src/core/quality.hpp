// Quality functions mapping processed volume to response quality
// (paper §II-A, Eq. 1, Fig. 1 and Fig. 7a).
//
// A quality function f is monotonically increasing and strictly concave
// with f(0) = 0; every job in a workload shares the same f. The paper's
// family is q(x) = (1 - e^{-cx}) / (1 - e^{-1000 c}).
#pragma once

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>

#include "core/assert.hpp"
#include "core/time.hpp"

namespace qes {

class QualityFunction {
 public:
  /// The paper's exponential family (Eq. 1). Larger `c` means more
  /// concave; the default c = 0.003 matches §V-B.
  [[nodiscard]] static QualityFunction exponential(double c = 0.003);

  /// f(x) = x / x_norm. Linear (not strictly concave); used to study the
  /// degenerate case and in tests.
  [[nodiscard]] static QualityFunction linear(double x_norm = 1000.0);

  /// f(x) = sqrt(x / x_norm).
  [[nodiscard]] static QualityFunction sqrt(double x_norm = 1000.0);

  /// f(x) = log(1 + kx) / log(1 + k x_norm).
  [[nodiscard]] static QualityFunction log1p(double k = 0.01,
                                             double x_norm = 1000.0);

  /// All-or-nothing step at the job's own demand is modelled at the job
  /// level (Job::partial_ok), not here; `step` provides a fixed-threshold
  /// variant for tests.
  [[nodiscard]] static QualityFunction step(double threshold);

  /// Arbitrary user function; `strictly_concave` documents whether the
  /// volume water-filling optimality argument applies.
  [[nodiscard]] static QualityFunction custom(std::string name,
                                              std::function<double(Work)> f,
                                              bool strictly_concave);

  [[nodiscard]] double operator()(Work volume) const {
    QES_ASSERT(volume >= -kTimeEps);
    return f_(std::max(volume, 0.0));
  }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] bool strictly_concave() const { return strictly_concave_; }

  /// Numerically verify monotonicity and (weak) concavity on a grid over
  /// [0, max_volume]. Used by tests and by the engine's debug mode.
  [[nodiscard]] bool check_shape(Work max_volume, int samples = 256) const;

 private:
  QualityFunction(std::string name, std::function<double(Work)> f,
                  bool strictly_concave)
      : name_(std::move(name)),
        f_(std::move(f)),
        strictly_concave_(strictly_concave) {}

  std::string name_;
  std::function<double(Work)> f_;
  bool strictly_concave_ = true;
};

/// True when `processed` meets `demand` up to the completion tolerance
/// (kCompletionRelEps relative to max(1, demand)).
[[nodiscard]] inline bool demand_met(Work processed, Work demand) {
  return processed + kCompletionRelEps * std::max(1.0, demand) >= demand;
}

}  // namespace qes
