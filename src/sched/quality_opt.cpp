#include "sched/quality_opt.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "alloc/waterfill.hpp"
#include "core/assert.hpp"

namespace qes {

namespace {

Time compress(Time x, Time z, Time z2) {
  if (x <= z) return x;
  if (x >= z2) return x - (z2 - z);
  return z;
}

// Inserts `v` into the ascending list `xs` behind every equal value.
void insert_sorted(std::vector<Work>& xs, Work v) {
  xs.insert(std::upper_bound(xs.begin(), xs.end(), v), v);
}

}  // namespace

void quality_opt_into(std::span<const Job> jobs, Speed speed,
                      std::span<const Work> baselines,
                      QualityOptScratch& scratch, QualityOptResult& out) {
  using Window = QualityOptScratch::Window;
  QES_ASSERT_MSG(speed > 0.0, "Quality-OPT needs a positive core speed");
  assert_agreeable_order(jobs);
  QES_ASSERT(baselines.empty() || baselines.size() == jobs.size());
  const std::size_t n = jobs.size();
  out.volumes.assign(n, 0.0);
  out.schedule.clear();

  std::vector<Window>& win = scratch.win;
  win.resize(n);
  std::size_t remaining = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const Job& j = jobs[k];
    const Work base = baselines.empty() ? 0.0 : baselines[k];
    const bool active = j.demand - base > kTimeEps;
    win[k] = {j.release, j.deadline, j.demand, base, active};
    if (active) {
      // The water-fill's precondition, checked once per job: every
      // active job enters the first start's intervals.
      QES_ASSERT_MSG(base >= -kTimeEps && base <= j.demand + kTimeEps,
                     "baseline must lie in [0, cap]");
      ++remaining;
    }
  }

  while (remaining > 0) {
    std::vector<std::size_t>& act = scratch.act;
    act.clear();
    act.reserve(remaining);
    for (std::size_t k = 0; k < n; ++k) {
      if (win[k].active) act.push_back(k);
    }

    // Search the busiest deprived interval: the candidate [r_i, d_j]
    // minimizing the water-fill level of the contained demands. A pair
    // that misses same-release/same-deadline twins only over-estimates
    // the level, so the scan still finds the true minimum; the winning
    // interval is re-evaluated below with its full contained set.
    //
    // Each candidate's level is what waterfill_volumes_into would return
    // for the items a..b, bit for bit: the same running sum in the same
    // order for the all-fit test, the same degenerate-capacity answer,
    // and the same sweep over the same breakpoint values.
    double best_level = std::numeric_limits<double>::infinity();
    Time best_z = 0.0, best_z2 = 0.0;
    bool found = false;
    std::vector<Work>& starts = scratch.starts;
    std::vector<Work>& ends = scratch.ends;
    for (std::size_t a = 0; a < act.size(); ++a) {
      // Non-first indices of a tied release start dominated intervals
      // (their level only over-estimates the canonical pair's); skip.
      // In the online case all releases coincide, so only a == 0 runs.
      if (a > 0 && win[act[a]].r <= win[act[a - 1]].r + kTimeEps) continue;
      const Time z = win[act[a]].r;
      starts.clear();
      ends.clear();
      Work remaining_total = 0.0;
      double min_base = std::numeric_limits<double>::infinity();
      for (std::size_t b = a; b < act.size(); ++b) {
        const Window& w = win[act[b]];
        remaining_total += std::max(0.0, w.w - w.base);
        if (w.w > w.base + kTimeEps) {
          insert_sorted(starts, w.base);
          insert_sorted(ends, w.w);
          min_base = std::min(min_base, w.base);
        }
        const Time z2 = w.d;
        QES_ASSERT(z2 > z);
        const Work capacity = speed * (z2 - z);
        double level;
        if (capacity + kTimeEps >= remaining_total) {
          level = std::numeric_limits<double>::infinity();
        } else if (capacity <= 0.0) {
          level = std::isfinite(min_base) ? min_base : 0.0;
        } else {
          level = waterfill_sweep_level(starts, ends, capacity);
        }
        if (level < best_level - 1e-9 || !found) {
          best_level = level;
          best_z = z;
          best_z2 = z2;
          found = true;
        }
      }
    }
    QES_ASSERT(found);

    if (!std::isfinite(best_level)) {
      // Every interval has spare capacity: all remaining jobs can be
      // fully satisfied.
      for (std::size_t k : act) {
        out.volumes[k] = win[k].w - win[k].base;
        win[k].active = false;
      }
      remaining = 0;
      break;
    }

    // Re-evaluate the winning interval over its full contained set and
    // grant the volumes: satisfied jobs get their remaining demand,
    // deprived jobs are levelled at the d-mean.
    std::vector<std::size_t>& contained = scratch.contained;
    std::vector<Work>& caps = scratch.caps;
    std::vector<Work>& bases = scratch.bases;
    contained.clear();
    caps.clear();
    bases.clear();
    for (std::size_t k : act) {
      if (win[k].r >= best_z - kTimeEps && win[k].d <= best_z2 + kTimeEps) {
        contained.push_back(k);
        caps.push_back(win[k].w);
        bases.push_back(win[k].base);
      }
    }
    QES_ASSERT(!contained.empty());
    waterfill_volumes_into(caps, bases, speed * (best_z2 - best_z),
                           scratch.wf_scratch, scratch.wf);
    for (std::size_t c = 0; c < contained.size(); ++c) {
      const std::size_t k = contained[c];
      out.volumes[k] = scratch.wf.alloc[c];
      win[k].active = false;
      --remaining;
    }
    for (std::size_t k : act) {
      if (!win[k].active) continue;
      win[k].r = compress(win[k].r, best_z, best_z2);
      win[k].d = compress(win[k].d, best_z, best_z2);
    }
  }

  // FIFO (== EDF) timetable at the fixed speed.
  Time t = n > 0 ? jobs[0].release : 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const Job& j = jobs[k];
    const Work p = out.volumes[k];
    if (p <= kTimeEps) continue;
    const Time start = std::max(t, j.release);
    const Time finish = start + p / speed;
    QES_ASSERT_MSG(approx_le(finish, j.deadline, 1e-5),
                   "Quality-OPT timetable must meet every deadline");
    out.schedule.push({start, finish, j.id, speed});
    t = finish;
  }
}

QualityOptResult quality_opt_schedule(const AgreeableJobSet& set,
                                      Speed speed,
                                      std::span<const Work> baselines) {
  QualityOptScratch scratch;
  QualityOptResult out;
  quality_opt_into(set.jobs(), speed, baselines, scratch, out);
  return out;
}

QualityOptResult quality_opt_schedule(const AgreeableJobSet& set,
                                      Speed speed) {
  return quality_opt_schedule(set, speed, {});
}

double total_quality(std::span<const Work> volumes, const QualityFunction& f) {
  double q = 0.0;
  for (Work v : volumes) q += f(v);
  return q;
}

}  // namespace qes
