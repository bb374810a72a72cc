#include "sched/weighted_quality.hpp"

#include <algorithm>
#include <functional>
#include <limits>

#include "alloc/marginal.hpp"
#include "core/assert.hpp"

namespace qes {

namespace {

struct Window {
  Time r;
  Time d;
  Work w;
  Work base;
  double weight;
  bool active;
};

Time compress(Time x, Time z, Time z2) {
  if (x <= z) return x;
  if (x >= z2) return x - (z2 - z);
  return z;
}

// Optimal multiplier and allocation for one interval's contained jobs.
MarginalAllocResult interval_alloc(const std::vector<Work>& caps,
                                   const std::vector<double>& weights,
                                   const QualityFunction& f, Work capacity,
                                   const std::vector<Work>& bases) {
  std::vector<std::function<double(Work)>> fs;
  fs.reserve(caps.size());
  for (double omega : weights) {
    fs.emplace_back([omega, &f](Work x) { return omega * f(x); });
  }
  return marginal_allocate(caps, fs, capacity, bases);
}

}  // namespace

WeightedQualityResult weighted_quality_opt_schedule(
    std::span<const Job> jobs, Speed speed, std::span<const double> weights,
    const QualityFunction& f, std::span<const Work> baselines) {
  QES_ASSERT(speed > 0.0);
  assert_agreeable_order(jobs);
  QES_ASSERT(weights.size() == jobs.size());
  QES_ASSERT(baselines.empty() || baselines.size() == jobs.size());
  for (double omega : weights) QES_ASSERT(omega > 0.0);
  const std::size_t n = jobs.size();
  WeightedQualityResult out;
  out.volumes.assign(n, 0.0);

  std::vector<Window> win(n);
  std::size_t remaining = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const Job& j = jobs[k];
    const Work base = baselines.empty() ? 0.0 : baselines[k];
    win[k] = {j.release, j.deadline, j.demand, base, weights[k],
              j.demand - base > kTimeEps};
    if (win[k].active) ++remaining;
  }

  while (remaining > 0) {
    std::vector<std::size_t> act;
    act.reserve(remaining);
    for (std::size_t k = 0; k < n; ++k) {
      if (win[k].active) act.push_back(k);
    }

    // Find the interval with the HIGHEST optimal multiplier lambda —
    // the scarcest capacity relative to weighted marginal demand. A pair
    // missing same-release twins only under-estimates lambda, so the
    // scan still finds the true maximum; the winner is re-evaluated with
    // its full contained set below.
    double best_lambda = -1.0;
    Time best_z = 0.0, best_z2 = 0.0;
    bool all_satisfiable = true;
    std::vector<Work> caps, bases;
    std::vector<double> ws;
    for (std::size_t a = 0; a < act.size(); ++a) {
      if (a > 0 && win[act[a]].r <= win[act[a - 1]].r + kTimeEps) continue;
      const Time z = win[act[a]].r;
      caps.clear();
      bases.clear();
      ws.clear();
      for (std::size_t b = a; b < act.size(); ++b) {
        caps.push_back(win[act[b]].w);
        bases.push_back(win[act[b]].base);
        ws.push_back(win[act[b]].weight);
        const Time z2 = win[act[b]].d;
        QES_ASSERT(z2 > z);
        const auto r =
            interval_alloc(caps, ws, f, speed * (z2 - z), bases);
        if (r.lambda > kTimeEps) all_satisfiable = false;
        if (r.lambda > best_lambda) {
          best_lambda = r.lambda;
          best_z = z;
          best_z2 = z2;
        }
      }
    }

    if (all_satisfiable) {
      for (std::size_t k : act) {
        out.volumes[k] = jobs[k].demand - win[k].base;
        win[k].active = false;
      }
      remaining = 0;
      break;
    }

    // Re-evaluate the winning interval with its full contained set.
    std::vector<std::size_t> contained;
    caps.clear();
    bases.clear();
    ws.clear();
    for (std::size_t k : act) {
      if (win[k].r >= best_z - kTimeEps && win[k].d <= best_z2 + kTimeEps) {
        contained.push_back(k);
        caps.push_back(win[k].w);
        bases.push_back(win[k].base);
        ws.push_back(win[k].weight);
      }
    }
    QES_ASSERT(!contained.empty());
    const auto r =
        interval_alloc(caps, ws, f, speed * (best_z2 - best_z), bases);
    for (std::size_t c = 0; c < contained.size(); ++c) {
      const std::size_t k = contained[c];
      out.volumes[k] = r.alloc[c];
      win[k].active = false;
      --remaining;
    }
    for (std::size_t k : act) {
      if (!win[k].active) continue;
      win[k].r = compress(win[k].r, best_z, best_z2);
      win[k].d = compress(win[k].d, best_z, best_z2);
    }
  }

  // FIFO timetable at the fixed speed, with truncation repair: clip any
  // allocation that cannot finish by its deadline (see the result's
  // `truncated` doc for why this can happen under heterogeneous weights).
  Time t = n > 0 ? jobs[0].release : 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    Work p = out.volumes[k];
    const Work base = baselines.empty() ? 0.0 : baselines[k];
    if (p > kTimeEps) {
      const Time start = std::max(t, jobs[k].release);
      const Time available = jobs[k].deadline - start;
      if (p / speed > available + 1e-9) {
        p = std::max(0.0, available * speed);
        out.volumes[k] = p;
        out.truncated = true;
      }
      if (p > kTimeEps) {
        const Time finish = start + p / speed;
        out.schedule.push({start, finish, jobs[k].id, speed});
        t = finish;
      }
    }
    out.weighted_quality += weights[k] * f(base + out.volumes[k]);
  }
  return out;
}

}  // namespace qes
