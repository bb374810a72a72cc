#include "alloc/waterfill.hpp"

#include <algorithm>
#include <limits>

#include "core/assert.hpp"

namespace qes {

namespace {

Work clamp_alloc(double level, Work baseline, Work cap) {
  return std::clamp(level - baseline, 0.0, cap - baseline);
}

}  // namespace

double waterfill_sweep_level(std::span<const Work> starts,
                             std::span<const Work> ends, Work capacity) {
  // Sweep the water level across the breakpoints {b_i} (item becomes
  // active) and {w_i} (item saturates); between breakpoints the fill rate
  // is the number of active items.
  QES_ASSERT(!starts.empty() && starts.size() == ends.size());
  const std::size_t n = starts.size();
  // w_i > b_i for every item, so the smallest start opens the sweep.
  double level = starts.front();
  Work poured = 0.0;
  int active = 0;
  std::size_t i = 0;  // next start
  std::size_t j = 0;  // next end
  while (i < n || j < n) {
    // Apply all breakpoints at the current level.
    while (i < n && starts[i] <= level + kTimeEps) {
      ++active;
      ++i;
    }
    while (j < n && ends[j] <= level + kTimeEps) {
      --active;
      ++j;
    }
    if (i == n && j == n) break;
    const double next = j == n || (i < n && starts[i] <= ends[j])
                            ? starts[i]
                            : ends[j];
    if (active > 0) {
      const Work span_volume = active * (next - level);
      if (poured + span_volume >= capacity - kTimeEps) {
        level += (capacity - poured) / active;
        poured = capacity;
        break;
      }
      poured += span_volume;
    }
    level = next;
  }
  QES_ASSERT_MSG(poured <= capacity + kTimeEps,
                 "water-fill must not exceed capacity");
  return level;
}

void waterfill_volumes_into(std::span<const Work> caps,
                            std::span<const Work> baselines, Work capacity,
                            WaterfillScratch& scratch, WaterfillResult& out) {
  QES_ASSERT(caps.size() == baselines.size());
  const std::size_t n = caps.size();
  out.alloc.assign(n, 0.0);
  out.level = 0.0;
  out.all_satisfied = false;
  out.used = 0.0;

  Work remaining_total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    QES_ASSERT_MSG(baselines[i] >= -kTimeEps &&
                       baselines[i] <= caps[i] + kTimeEps,
                   "baseline must lie in [0, cap]");
    remaining_total += std::max(0.0, caps[i] - baselines[i]);
  }

  if (capacity + kTimeEps >= remaining_total) {
    for (std::size_t i = 0; i < n; ++i) {
      out.alloc[i] = std::max(0.0, caps[i] - baselines[i]);
    }
    out.level = std::numeric_limits<double>::infinity();
    out.all_satisfied = true;
    out.used = remaining_total;
    return;
  }
  if (capacity <= 0.0 || n == 0) {
    double min_base = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < n; ++i) {
      if (caps[i] > baselines[i] + kTimeEps) {
        min_base = std::min(min_base, static_cast<double>(baselines[i]));
      }
    }
    out.level = std::isfinite(min_base) ? min_base : 0.0;
    return;
  }

  std::vector<Work>& starts = scratch.starts;
  std::vector<Work>& ends = scratch.ends;
  starts.clear();
  ends.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (caps[i] > baselines[i] + kTimeEps) {
      starts.push_back(baselines[i]);
      ends.push_back(caps[i]);
    }
  }
  std::sort(starts.begin(), starts.end());
  std::sort(ends.begin(), ends.end());
  const double level = waterfill_sweep_level(starts, ends, capacity);

  out.level = level;
  for (std::size_t i = 0; i < n; ++i) {
    out.alloc[i] = clamp_alloc(level, baselines[i], caps[i]);
    out.used += out.alloc[i];
  }
}

void waterfill_volumes_into(std::span<const Work> caps, Work capacity,
                            WaterfillScratch& scratch, WaterfillResult& out) {
  scratch.zeros.assign(caps.size(), 0.0);
  waterfill_volumes_into(caps, scratch.zeros, capacity, scratch, out);
}

WaterfillResult waterfill_volumes(std::span<const Work> caps,
                                  std::span<const Work> baselines,
                                  Work capacity) {
  WaterfillScratch scratch;
  WaterfillResult r;
  waterfill_volumes_into(caps, baselines, capacity, scratch, r);
  return r;
}

WaterfillResult waterfill_volumes(std::span<const Work> caps, Work capacity) {
  WaterfillScratch scratch;
  WaterfillResult r;
  waterfill_volumes_into(caps, capacity, scratch, r);
  return r;
}

}  // namespace qes
