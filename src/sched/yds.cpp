#include "sched/yds.hpp"

#include <algorithm>
#include <limits>

#include "core/assert.hpp"

namespace qes {

namespace {

// Map a timestamp through the removal of interval [z, z'] (timeline
// compression, §III-A).
Time compress(Time x, Time z, Time z2) {
  if (x <= z) return x;
  if (x >= z2) return x - (z2 - z);
  return z;
}

}  // namespace

void yds_schedule_into(std::span<const Job> jobs, YdsScratch& scratch,
                       YdsResult& out) {
  using Window = YdsScratch::Window;
  assert_agreeable_order(jobs);
  const std::size_t n = jobs.size();
  out.speeds.assign(n, 0.0);
  out.schedule.clear();
  out.critical_speed = 0.0;

  // The active jobs' windows, compacted in sorted order. Each round's
  // containment pass drops the jobs it schedules and compresses the
  // survivors in place, so a round walks only the jobs still active.
  std::vector<Window>& win = scratch.win;
  win.clear();
  for (std::size_t k = 0; k < n; ++k) {
    const Job& j = jobs[k];
    if (j.demand > kTimeEps) win.push_back({j.release, j.deadline, j.demand, k});
  }

  std::vector<Work>& prefix = scratch.prefix;
  while (!win.empty()) {
    // Find the critical interval among candidate pairs (a, b) of active
    // jobs. Containment is contiguous in sorted order, so a prefix sum
    // over the active demands gives O(1) interval weights.
    const std::size_t live = win.size();
    prefix.resize(live + 1);
    prefix[0] = 0.0;
    for (std::size_t a = 0; a < live; ++a) {
      prefix[a + 1] = prefix[a] + win[a].w;
    }

    double best_g = -1.0;
    Time best_z = 0.0, best_z2 = 0.0;
    for (std::size_t a = 0; a < live; ++a) {
      // Intervals starting at a non-first index of a tied release are
      // dominated by the pair starting at the first such index (same
      // interval, superset of jobs) — skip them. In the online case all
      // releases coincide, so only a == 0 survives.
      if (a > 0 && win[a].r <= win[a - 1].r + kTimeEps) continue;
      const Time z = win[a].r;
      for (std::size_t b = a; b < live; ++b) {
        const Time z2 = win[b].d;
        const Time len = z2 - z;
        QES_ASSERT(len > 0.0);
        const double g = (prefix[b + 1] - prefix[a]) / len;
        if (g > best_g + 1e-12) {
          best_g = g;
          best_z = z;
          best_z2 = z2;
        }
      }
    }
    QES_ASSERT_MSG(best_g > 0.0, "critical interval must have positive speed");
    out.critical_speed = std::max(out.critical_speed, best_g);

    // Assign the critical speed to every contained job and compress the
    // interval out of the survivors' windows, keeping them in order.
    std::size_t kept = 0;
    for (std::size_t a = 0; a < live; ++a) {
      Window w = win[a];
      if (w.r >= best_z - kTimeEps && w.d <= best_z2 + kTimeEps) {
        out.speeds[w.k] = best_g;
        continue;
      }
      w.r = compress(w.r, best_z, best_z2);
      w.d = compress(w.d, best_z, best_z2);
      win[kept++] = w;
    }
    win.resize(kept);
  }

  // Timetable: FIFO (== EDF for agreeable deadlines) at per-job speeds.
  Time t = 0.0;
  if (n > 0) t = jobs[0].release;
  for (std::size_t k = 0; k < n; ++k) {
    const Job& j = jobs[k];
    if (j.demand <= kTimeEps) continue;
    const Speed s = out.speeds[k];
    QES_ASSERT(s > 0.0);
    const Time start = std::max(t, j.release);
    const Time finish = start + j.demand / s;
    QES_ASSERT_MSG(approx_le(finish, j.deadline, 1e-5),
                   "YDS timetable must meet every deadline");
    out.schedule.push({start, finish, j.id, s});
    t = finish;
  }
}

void yds_schedule_capped_into(std::span<const Job> jobs, Speed max_speed,
                              YdsScratch& scratch, YdsResult& out,
                              double max_rel_excess) {
  QES_ASSERT(max_speed > 0.0);
  yds_schedule_into(jobs, scratch, out);
  if (out.critical_speed <= max_speed) return;
  const double excess = out.critical_speed / max_speed - 1.0;
  QES_ASSERT_MSG(excess <= max_rel_excess,
                 "YDS critical speed exceeds the cap by more than "
                 "floating-point drift can explain");
  // Rescale demands so the critical speed lands just under the cap.
  const double scale = (1.0 - 1e-12) / (1.0 + excess);
  // Scaling demands keeps the (release, deadline, id) order.
  scratch.scaled.assign(jobs.begin(), jobs.end());
  for (Job& j : scratch.scaled) j.demand *= scale;
  yds_schedule_into(scratch.scaled, scratch, out);
  QES_ASSERT(out.critical_speed <= max_speed);
}

YdsResult yds_schedule(const AgreeableJobSet& set) {
  YdsScratch scratch;
  YdsResult out;
  yds_schedule_into(set.jobs(), scratch, out);
  return out;
}

YdsResult yds_schedule_capped(const AgreeableJobSet& set, Speed max_speed,
                              double max_rel_excess) {
  YdsScratch scratch;
  YdsResult out;
  yds_schedule_capped_into(set.jobs(), max_speed, scratch, out,
                           max_rel_excess);
  return out;
}

Joules yds_energy(const AgreeableJobSet& set, const YdsResult& result,
                  const PowerModel& pm) {
  QES_ASSERT(result.speeds.size() == set.size());
  Joules e = 0.0;
  for (std::size_t k = 0; k < set.size(); ++k) {
    if (set[k].demand <= kTimeEps) continue;
    const Time dur = set[k].demand / result.speeds[k];
    e += pm.dynamic_energy(result.speeds[k], dur);
  }
  return e;
}

}  // namespace qes
