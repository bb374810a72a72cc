#include "core/job.hpp"

namespace qes {

bool deadlines_agreeable(std::span<const Job> jobs) {
  std::vector<Job> sorted(jobs.begin(), jobs.end());
  sort_by_release(sorted);
  for (std::size_t k = 1; k < sorted.size(); ++k) {
    if (sorted[k].deadline < sorted[k - 1].deadline - kTimeEps) return false;
  }
  return true;
}

void sort_by_release(std::vector<Job>& jobs) {
  if (!std::is_sorted(jobs.begin(), jobs.end(), release_order_less)) {
    std::sort(jobs.begin(), jobs.end(), release_order_less);
  }
}

void assert_agreeable_order(std::span<const Job> jobs) {
  for (std::size_t k = 1; k < jobs.size(); ++k) {
    QES_ASSERT_MSG(!release_order_less(jobs[k], jobs[k - 1]),
                   "job list must be in (release, deadline, id) order");
    QES_ASSERT_MSG(jobs[k].deadline >= jobs[k - 1].deadline - kTimeEps,
                   "job set must have agreeable deadlines");
  }
  for (const Job& j : jobs) {
    QES_ASSERT_MSG(j.demand >= 0.0 && j.deadline > j.release,
                   "job must have non-negative demand and a positive window");
  }
}

Work total_demand(std::span<const Job> jobs) {
  return std::accumulate(jobs.begin(), jobs.end(), Work{0},
                         [](Work acc, const Job& j) { return acc + j.demand; });
}

AgreeableJobSet::AgreeableJobSet(std::vector<Job> jobs)
    : jobs_(std::move(jobs)) {
  sort_by_release(jobs_);
  assert_agreeable_order(jobs_);
  prefix_.resize(jobs_.size() + 1, 0.0);
  for (std::size_t k = 0; k < jobs_.size(); ++k) {
    prefix_[k + 1] = prefix_[k] + jobs_[k].demand;
  }
}

}  // namespace qes
