// JobStore: the one job store of both planes. sim::Engine and
// runtime::RuntimeCore keep every admitted job's JobState here, indexed
// by id − 1, and stream finalized jobs into the plane's RunAccumulator.
//
// Deadlines are agreeable, so jobs die in admission order: everything
// below the plane's first_live index is finalized. A finalized job is
// still read while an installed plan names it (a plan keeps the stale
// segments of a job that completed early, and the substep integration
// and the completion sweep dereference them), so the dead prefix ends
// at min(first_live, the lowest job any core's remaining segments
// name). reclaim_dead_prefix() feeds that prefix to the accumulator in
// id order — the order and arithmetic of an end-of-run loop over all
// jobs, so RunStats stay bitwise — and frees its whole chunks. The
// accumulator's registry families therefore advance chunk by chunk
// during a run. The simulator reclaims only when it does not record job
// states; the runtime always does, which bounds qesd's job records by
// its live window plus about one chunk.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "core/assert.hpp"
#include "core/chunked_arena.hpp"
#include "core/job_state.hpp"
#include "core/quality.hpp"
#include "obs/run_accumulator.hpp"

namespace qes::obs {

class JobStore {
 public:
  using Arena = ChunkedArena<JobState>;

  JobStore() = default;
  /// `registry` (may be nullptr) and `prefix` ("qes_sim", "qesd") name
  /// the accumulator's mirrored instruments.
  JobStore(Registry* registry, std::string prefix)
      : registry_(registry), prefix_(std::move(prefix)) {}

  [[nodiscard]] std::size_t size() const { return jobs_.size(); }
  [[nodiscard]] bool empty() const { return jobs_.empty(); }
  void reserve(std::size_t n) { jobs_.reserve(n); }

  JobState& admit(const Job& job, std::uint64_t tag = 0) {
    return jobs_.push_back(JobState{.job = job, .tag = tag});
  }

  /// The state of the job at `index` (== id − 1); asserts it is resident.
  [[nodiscard]] JobState& operator[](std::size_t index) {
    return jobs_[index];
  }
  [[nodiscard]] const JobState& operator[](std::size_t index) const {
    return jobs_[index];
  }

  /// Entries freed so far: every index below this one is gone.
  [[nodiscard]] std::size_t released() const { return jobs_.resident_floor(); }
  /// Frees the whole chunks below `floor` without feeding them (the
  /// simulator's copy-out of recorded job states).
  void release_before(std::size_t floor) { jobs_.release_before(floor); }

  /// The plane's run accumulator, built at first use so its registry
  /// families register where the plane first needs them.
  [[nodiscard]] RunAccumulator& accumulator() {
    if (!acc_) acc_.emplace(registry_, prefix_);
    return *acc_;
  }

  /// Feeds the finalized jobs [fed, limit) to the accumulator in id
  /// order. Abandoned jobs are skipped: they are accounted at the node
  /// that re-admits them.
  void feed_upto(std::size_t limit, const QualityFunction& f) {
    if (limit <= fed_) return;
    RunAccumulator& acc = accumulator();
    for (; fed_ < limit; ++fed_) {
      const JobState& st = jobs_[fed_];
      QES_ASSERT(st.phase == JobState::Phase::Finalized);
      if (st.abandoned) continue;
      acc.on_job(st.quality, st.job.weight * f(st.job.demand), st.satisfied,
                 st.processed > kTimeEps, !st.job.partial_ok && !st.satisfied,
                 st.finalized_at - st.job.release);
    }
  }

  /// Feeds and frees the dead prefix (see the file comment). `cores`
  /// is the plane's per-core records, each with a `plan` Schedule and
  /// the index `next_seg` of its first remaining segment.
  template <class Cores>
  void reclaim_dead_prefix(std::size_t first_live, const Cores& cores,
                           const QualityFunction& f) {
    // Only whole chunks can be freed — skip the plan scan until at least
    // one full chunk of jobs has died since the last release.
    if (first_live - jobs_.resident_floor() < Arena::kChunkSize) return;
    std::size_t floor = first_live;
    for (const auto& c : cores) {
      for (std::size_t k = c.next_seg; k < c.plan.size(); ++k) {
        floor = std::min(floor, static_cast<std::size_t>(c.plan[k].job - 1));
      }
    }
    feed_upto(floor, f);
    jobs_.release_before(floor);
  }

 private:
  Arena jobs_;
  std::size_t fed_ = 0;  // jobs below this are in the accumulator
  Registry* registry_ = nullptr;
  std::string prefix_;
  std::optional<RunAccumulator> acc_;
};

}  // namespace qes::obs
