// Job model for best-effort interactive services (paper §II-A).
//
// A job J_j is (release r_j, deadline d_j, service demand w_j). Deadlines
// are *agreeable*: a later release implies a later (or equal) deadline.
// Jobs support partial evaluation unless flagged all-or-nothing.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "core/assert.hpp"
#include "core/time.hpp"

namespace qes {

/// Stable identity of a job across the whole simulation.
using JobId = std::uint64_t;

struct Job {
  JobId id = 0;
  Time release = 0.0;
  Time deadline = 0.0;
  Work demand = 0.0;
  /// When false the job is all-or-nothing: partial volume yields zero
  /// quality (paper §V-D varies the fraction of such jobs).
  bool partial_ok = true;
  /// Service-class weight: the job contributes weight * f(p) quality
  /// (extension; 1.0 everywhere in the paper's experiments).
  double weight = 1.0;

  [[nodiscard]] Time window() const { return deadline - release; }
};

/// True if every pair of jobs has agreeable deadlines once sorted by
/// release time (ties resolved by deadline).
[[nodiscard]] bool deadlines_agreeable(std::span<const Job> jobs);

/// The (release, deadline, id) order every single-core algorithm assumes
/// on input.
[[nodiscard]] inline bool release_order_less(const Job& a, const Job& b) {
  if (a.release != b.release) return a.release < b.release;
  if (a.deadline != b.deadline) return a.deadline < b.deadline;
  return a.id < b.id;
}

/// Sorts ascending by (release, deadline, id), leaving a list already in
/// that order untouched: with unique ids a sorted list is the one order
/// std::sort could return, so a caller that builds its list in order pays
/// one O(n) check instead of a sort.
void sort_by_release(std::vector<Job>& jobs);

/// Aborts unless `jobs` is what an AgreeableJobSet would hold: in
/// (release, deadline, id) order, agreeable, every demand non-negative and
/// every window positive. The single-core kernels (YDS, Quality-OPT)
/// check their span inputs with it.
void assert_agreeable_order(std::span<const Job> jobs);

/// Sum of demands.
[[nodiscard]] Work total_demand(std::span<const Job> jobs);

/// A sorted, agreeable job set with prefix demand sums, giving O(1)
/// interval intensities g([r_i, d_j]) = (W_j - W_{i-1}) / (d_j - r_i).
/// Offline callers build one to order and check an arbitrary list and
/// hand its jobs() to the single-core kernels; online callers, whose
/// lists are already in order, pass their lists directly.
class AgreeableJobSet {
 public:
  AgreeableJobSet() = default;
  explicit AgreeableJobSet(std::vector<Job> jobs);

  [[nodiscard]] std::size_t size() const { return jobs_.size(); }
  [[nodiscard]] bool empty() const { return jobs_.empty(); }
  [[nodiscard]] const Job& operator[](std::size_t i) const { return jobs_[i]; }
  [[nodiscard]] std::span<const Job> jobs() const { return jobs_; }

  /// Total demand of jobs with indices in [i, j] inclusive.
  [[nodiscard]] Work demand_between(std::size_t i, std::size_t j) const {
    QES_ASSERT(i <= j && j < jobs_.size());
    return prefix_[j + 1] - prefix_[i];
  }

  /// Interval intensity g([r_i, d_j]) (paper §III-A). Jobs fully contained
  /// in [r_i, d_j] are exactly indices i..j because the set is sorted and
  /// agreeable.
  [[nodiscard]] double intensity(std::size_t i, std::size_t j) const {
    const Time len = jobs_[j].deadline - jobs_[i].release;
    QES_ASSERT(len > 0.0);
    return demand_between(i, j) / len;
  }

 private:
  std::vector<Job> jobs_;
  std::vector<Work> prefix_;  // prefix_[k] = sum of demands of jobs_[0..k)
};

}  // namespace qes
