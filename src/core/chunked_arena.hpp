// Chunked append-only arena with prefix release.
//
// Both planes' per-job state (obs::JobStore) is indexed by dense job id
// and written in admission order; once a plane's live window moves past
// a job (finalized, fed to the run accumulator, and no stale plan
// segment references it), its state is never touched again. A
// std::vector would keep every one of those dead entries resident —
// ~100 bytes/job, over a gigabyte for the 10M-job scenario cell and
// unbounded for qesd, which serves for as long as it runs.
//
// ChunkedArena stores the entries in fixed-size chunks of 4Ki entries
// and lets the owner free the fully-dead prefix chunk by chunk:
// release_before(i) drops every chunk that lies entirely below index i.
// The chunk is small enough that a cluster node admitting a few tens of
// thousands of jobs frees its early chunks (at 32Ki it never freed its
// first 3 MB one), and large enough that appends stay amortized
// allocation-free: two allocations per 4096 entries, which keeps the
// engine's differential steady-state allocation gate (bench/
// sim_event_core) intact. Indexing is two loads (chunk pointer, then
// element); accessing a released index is a hard assert.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "core/assert.hpp"

namespace qes {

template <typename T>
class ChunkedArena {
 public:
  static constexpr std::size_t kChunkLog2 = 12;
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkLog2;
  static constexpr std::size_t kChunkMask = kChunkSize - 1;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// First index that is still resident; everything below has been
  /// released (0 until the first release_before call takes effect).
  [[nodiscard]] std::size_t resident_floor() const {
    return released_chunks_ * kChunkSize;
  }

  /// Chunks currently resident (diagnostics / RSS accounting).
  [[nodiscard]] std::size_t resident_chunks() const {
    return chunks_.size() - released_chunks_;
  }

  void reserve(std::size_t n) {
    chunks_.reserve((n + kChunkSize - 1) >> kChunkLog2);
  }

  T& push_back(T value) {
    const std::size_t chunk = size_ >> kChunkLog2;
    if (chunk == chunks_.size()) {
      chunks_.push_back(std::make_unique<std::vector<T>>());
      chunks_.back()->reserve(kChunkSize);
    }
    std::vector<T>& c = *chunks_[chunk];
    c.push_back(std::move(value));
    ++size_;
    return c.back();
  }

  [[nodiscard]] T& operator[](std::size_t i) {
    QES_ASSERT_MSG(i < size_, "arena index out of range");
    QES_ASSERT_MSG((i >> kChunkLog2) >= released_chunks_,
                   "arena index below the released floor");
    return (*chunks_[i >> kChunkLog2])[i & kChunkMask];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    return const_cast<ChunkedArena*>(this)->operator[](i);
  }

  /// Frees every chunk lying entirely below index `floor`. Indices in
  /// [resident_floor(), floor) that share a chunk with `floor` stay
  /// resident; release is monotone and idempotent.
  void release_before(std::size_t floor) {
    QES_ASSERT_MSG(floor <= size_, "release floor past the arena end");
    const std::size_t target = floor >> kChunkLog2;
    while (released_chunks_ < target) {
      chunks_[released_chunks_].reset();
      ++released_chunks_;
    }
  }

 private:
  std::vector<std::unique_ptr<std::vector<T>>> chunks_;
  std::size_t size_ = 0;
  std::size_t released_chunks_ = 0;
};

}  // namespace qes
