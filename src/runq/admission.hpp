// Sharded lock-free admission: one bounded MPSC ring per core shard,
// thread-affine producer routing, quota-bounded consumer drains with
// work stealing at C-RR boundaries, and exact shed/steal ledgers.
//
// The runtime's one admission path: the ring bound is the backpressure,
// and a push that times out is counted as shed, ledger-exactly. Design
// follows the O(1)-scheduler shape (SNIPPETS #2): per-CPU queues so the
// common enqueue touches only core-local state, plus occasional stealing
// when a queue runs dry while a sibling is backlogged.
//
// Accounting contract (tested exactly, not approximately):
//   per shard:  pushed == drained_home + drained_stolen + residual
//   global:     sum(pushed)  == every item a producer successfully
//               enqueued; sum(shed) == every item refused (full/closed);
//               sum(stolen_taken) == sum(drained_stolen).
// After close() + drain_all(), residual == 0 and sum(drained) equals
// sum(pushed) — the runtime reconciles this against RuntimeCore's
// admitted() and RunStats totals.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/assert.hpp"
#include "runq/ravg.hpp"
#include "runq/ring.hpp"

namespace qes::runq {

/// Aggregated ledger totals across all shards.
struct AdmissionLedger {
  std::uint64_t pushed = 0;         // accepted into some ring
  std::uint64_t shed = 0;           // refused (ring full or closed)
  std::uint64_t drained = 0;        // consumed (home + stolen)
  std::uint64_t stolen = 0;         // subset of drained taken cross-shard
};

template <typename T>
class ShardedAdmission {
 public:
  struct Config {
    std::size_t shards = 1;
    std::size_t capacity_per_shard = 512;
    /// Max items a shard contributes per drain_crr() pass; leftover
    /// quota from a dry shard is spent stealing from the most
    /// backlogged sibling.
    std::size_t drain_quota = 1024;
    /// A sibling is a steal victim only if its approximate backlog is
    /// at least this deep (avoids ping-ponging single items).
    std::size_t steal_threshold = 8;
  };

  explicit ShardedAdmission(const Config& cfg) : cfg_(cfg) {
    QES_ASSERT_MSG(cfg_.shards >= 1, "admission needs at least one shard");
    rings_.reserve(cfg_.shards);
    for (std::size_t i = 0; i < cfg_.shards; ++i) {
      rings_.push_back(std::make_unique<MpscRing<T>>(cfg_.capacity_per_shard));
    }
    counters_ = std::make_unique<ShardCounters[]>(cfg_.shards);
    loads_ = std::make_unique<RunningAvg[]>(cfg_.shards);
  }

  [[nodiscard]] std::size_t shards() const { return cfg_.shards; }

  /// Shard this thread should push to.  First call from a thread
  /// registers it round-robin (one relaxed fetch_add); subsequent calls
  /// hit a thread-local cache, so the steady-state path is two plain
  /// loads and a compare.  A thread alternating between instances
  /// re-registers on each switch — correct, just less affine.
  [[nodiscard]] std::size_t shard_for_this_thread() const {
    struct Cache {
      const void* instance = nullptr;
      std::size_t shard = 0;
    };
    thread_local Cache cache;
    if (cache.instance != this) {
      cache.instance = this;
      cache.shard = next_producer_.fetch_add(1, std::memory_order_relaxed) %
                    cfg_.shards;
    }
    return cache.shard;
  }

  /// Push one item to this thread's affine shard. Ledger-exact: the
  /// item lands in `pushed` or `shed`, never neither.
  bool push(const T& value) {
    const std::size_t s = shard_for_this_thread();
    if (rings_[s]->try_push(value)) {
      counters_[s].pushed.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    counters_[s].shed.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  /// Push a batch to the affine shard, accepting the longest prefix
  /// that fits. Returns the number accepted; the suffix is counted shed.
  std::size_t push_many(const T* items, std::size_t n) {
    const std::size_t s = shard_for_this_thread();
    const std::size_t accepted = rings_[s]->try_push_many(items, n);
    if (accepted > 0) {
      counters_[s].pushed.fetch_add(accepted, std::memory_order_relaxed);
    }
    if (accepted < n) {
      counters_[s].shed.fetch_add(n - accepted, std::memory_order_relaxed);
    }
    return accepted;
  }

  /// Like push(), but retries are the caller's job — this just reports
  /// whether the affine ring had room. Used by Server::submit()'s
  /// bounded-timeout loop.
  [[nodiscard]] bool try_push_no_ledger(const T& value) {
    return rings_[shard_for_this_thread()]->try_push(value);
  }

  /// Caller-side ledger credit for push attempts managed externally
  /// (Server::submit timeout loop): exactly one of these per item.
  void credit_pushed() {
    counters_[shard_for_this_thread()].pushed.fetch_add(
        1, std::memory_order_relaxed);
  }
  void credit_shed() {
    counters_[shard_for_this_thread()].shed.fetch_add(
        1, std::memory_order_relaxed);
  }

  struct DrainResult {
    std::size_t drained = 0;
    std::size_t stolen = 0;
  };

  /// Consumer-only (single thread). One C-RR boundary pass: each shard
  /// contributes up to `drain_quota` items in shard order; a shard that
  /// runs dry spends its leftover quota on the most backlogged sibling
  /// (by decayed ravg load, gated on instantaneous depth >=
  /// steal_threshold), crediting the stolen ledgers.  Also feeds each
  /// shard's RunningAvg with its pre-drain backlog.
  DrainResult drain_crr(std::vector<T>& out) {
    DrainResult res;
    const std::size_t S = cfg_.shards;
    for (std::size_t s = 0; s < S; ++s) {
      loads_[s].observe(static_cast<double>(rings_[s]->approx_size()));
    }
    for (std::size_t s = 0; s < S; ++s) {
      std::size_t quota = cfg_.drain_quota;
      T item;
      while (quota > 0 && rings_[s]->try_pop(item)) {
        out.push_back(item);
        --quota;
        ++res.drained;
        counters_[s].drained_home.fetch_add(1, std::memory_order_relaxed);
      }
      if (quota == 0 || S == 1) continue;
      // Ran dry with leftover quota: steal from the decayed-heaviest
      // backlogged sibling, if any qualifies.
      const std::size_t victim = pick_victim(s);
      if (victim == S) continue;
      while (quota > 0 && rings_[victim]->try_pop(item)) {
        out.push_back(item);
        --quota;
        ++res.drained;
        ++res.stolen;
        counters_[victim].drained_stolen.fetch_add(
            1, std::memory_order_relaxed);
        counters_[s].stolen_taken.fetch_add(1, std::memory_order_relaxed);
      }
    }
    return res;
  }

  /// Consumer-only: unbounded drain of every shard (shutdown path).
  std::size_t drain_all(std::vector<T>& out) {
    std::size_t n = 0;
    for (std::size_t s = 0; s < cfg_.shards; ++s) {
      T item;
      while (rings_[s]->try_pop(item)) {
        out.push_back(item);
        ++n;
        counters_[s].drained_home.fetch_add(1, std::memory_order_relaxed);
      }
    }
    return n;
  }

  /// Close every ring: subsequent pushes fail (and are ledgered shed).
  void close() {
    for (auto& r : rings_) r->close();
  }
  [[nodiscard]] bool closed() const { return rings_[0]->closed(); }

  /// Exact when producers are quiescent (post-close) or when called by
  /// the consumer between drains.
  [[nodiscard]] bool empty() const {
    for (const auto& r : rings_) {
      if (!r->empty()) return false;
    }
    return true;
  }

  [[nodiscard]] std::size_t approx_depth() const {
    std::size_t d = 0;
    for (const auto& r : rings_) d += r->approx_size();
    return d;
  }

  [[nodiscard]] double load_ravg(std::size_t shard) const {
    return loads_[shard].value();
  }

  /// Per-shard raw counters (test/diagnostic surface).
  struct ShardLedger {
    std::uint64_t pushed, shed, drained_home, drained_stolen, stolen_taken;
  };
  [[nodiscard]] ShardLedger shard_ledger(std::size_t s) const {
    const auto& c = counters_[s];
    return {c.pushed.load(std::memory_order_relaxed),
            c.shed.load(std::memory_order_relaxed),
            c.drained_home.load(std::memory_order_relaxed),
            c.drained_stolen.load(std::memory_order_relaxed),
            c.stolen_taken.load(std::memory_order_relaxed)};
  }

  [[nodiscard]] AdmissionLedger ledger() const {
    AdmissionLedger l;
    for (std::size_t s = 0; s < cfg_.shards; ++s) {
      const ShardLedger sl = shard_ledger(s);
      l.pushed += sl.pushed;
      l.shed += sl.shed;
      l.drained += sl.drained_home + sl.drained_stolen;
      l.stolen += sl.stolen_taken;
    }
    return l;
  }

 private:
  struct alignas(64) ShardCounters {
    std::atomic<std::uint64_t> pushed{0};
    std::atomic<std::uint64_t> shed{0};
    std::atomic<std::uint64_t> drained_home{0};
    std::atomic<std::uint64_t> drained_stolen{0};
    std::atomic<std::uint64_t> stolen_taken{0};
  };

  /// Heaviest sibling of `thief` by decayed load whose instantaneous
  /// depth clears the steal threshold; returns shards() when none.
  [[nodiscard]] std::size_t pick_victim(std::size_t thief) const {
    std::size_t best = cfg_.shards;
    double best_load = -1.0;
    for (std::size_t v = 0; v < cfg_.shards; ++v) {
      if (v == thief) continue;
      if (rings_[v]->approx_size() < cfg_.steal_threshold) continue;
      const double load = loads_[v].value();
      if (load > best_load) {
        best_load = load;
        best = v;
      }
    }
    return best;
  }

  Config cfg_;
  std::vector<std::unique_ptr<MpscRing<T>>> rings_;
  std::unique_ptr<ShardCounters[]> counters_;
  std::unique_ptr<RunningAvg[]> loads_;
  mutable std::atomic<std::uint64_t> next_producer_{0};
};

}  // namespace qes::runq
