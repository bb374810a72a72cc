// Differential tests for the DES planner kernels against the loops they
// replaced, kept here verbatim as references. Every comparison is
// bitwise:
//  - the sorted WF (power_waterfill.cpp) against the round loop that
//    rescans every core each round;
//  - YDS on a span against YDS on an AgreeableJobSet, whose constructor
//    sorts and checks the list itself (distinct and tied releases, and
//    the capped rescale, which used to rebuild a second set);
//  - the incremental Quality-OPT interval search against the search that
//    runs a full water-fill (its own event sort) per candidate interval,
//    over random agreeable sets and the jobs of tests/corpus/;
//  - Online-QE against its AgreeableJobSet version, including the ready
//    list whose running job trails another deadline by under kTimeEps,
//    where only the is_sorted fallback puts step 2 in order.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli/workload_source.hpp"
#include "core/assert.hpp"
#include "core/job.hpp"
#include "core/power.hpp"
#include "core/prng.hpp"
#include "policy/power_waterfill.hpp"
#include "scenario/spec.hpp"
#include "sched/online_qe.hpp"
#include "sched/quality_opt.hpp"
#include "sched/yds.hpp"

namespace qes {
namespace {

bool same_bits(double x, double y) {
  return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
}

::testing::AssertionResult same_values(const std::vector<double>& got,
                                       const std::vector<double>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << "size " << got.size() << " != " << want.size();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!same_bits(got[i], want[i])) {
      return ::testing::AssertionFailure()
             << "[" << i << "] " << got[i] << " != " << want[i];
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult same_schedule(const Schedule& got,
                                         const Schedule& want) {
  const auto& a = got.segments();
  const auto& b = want.segments();
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << a.size() << " segments != " << b.size();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].job != b[i].job || !same_bits(a[i].t0, b[i].t0) ||
        !same_bits(a[i].t1, b[i].t1) || !same_bits(a[i].speed, b[i].speed)) {
      return ::testing::AssertionFailure() << "segment " << i << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

// ---------------------------------------------------------------------
// Reference kernels: the replaced loops, verbatim but for names.
// ---------------------------------------------------------------------

void ref_waterfill_power(std::span<const Watts> requested, Watts budget,
                         std::vector<Watts>& assigned) {
  QES_ASSERT(budget >= 0.0);
  const std::size_t m = requested.size();
  assigned.assign(m, 0.0);
  Watts remaining = budget;
  std::vector<Watts> outstanding(requested.begin(), requested.end());
  for (Watts& h : outstanding) QES_ASSERT(h >= 0.0);
  while (true) {
    std::size_t unsatisfied = 0;
    Watts h_min = 0.0;
    bool first = true;
    for (Watts h : outstanding) {
      if (h > kTimeEps) {
        ++unsatisfied;
        if (first || h < h_min) {
          h_min = h;
          first = false;
        }
      }
    }
    if (unsatisfied == 0 || remaining <= kTimeEps) break;
    if (h_min * static_cast<double>(unsatisfied) >= remaining) {
      const Watts share = remaining / static_cast<double>(unsatisfied);
      for (std::size_t i = 0; i < m; ++i) {
        if (outstanding[i] > kTimeEps) assigned[i] += share;
      }
      remaining = 0.0;
      break;
    }
    for (std::size_t i = 0; i < m; ++i) {
      if (outstanding[i] > kTimeEps) {
        assigned[i] += h_min;
        outstanding[i] -= h_min;
        remaining -= h_min;
      }
    }
  }
}

Time compress(Time x, Time z, Time z2) {
  if (x <= z) return x;
  if (x >= z2) return x - (z2 - z);
  return z;
}

YdsResult ref_yds(const AgreeableJobSet& set) {
  struct Window {
    Time r;
    Time d;
    Work w;
    bool active;
  };
  YdsResult out;
  const std::size_t n = set.size();
  out.speeds.assign(n, 0.0);
  std::vector<Window> win(n);
  std::size_t remaining = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const Job& j = set[k];
    win[k] = {j.release, j.deadline, j.demand, j.demand > kTimeEps};
    if (win[k].active) ++remaining;
  }
  while (remaining > 0) {
    std::vector<std::size_t> act;
    for (std::size_t k = 0; k < n; ++k) {
      if (win[k].active) act.push_back(k);
    }
    std::vector<Work> prefix(act.size() + 1, 0.0);
    for (std::size_t a = 0; a < act.size(); ++a) {
      prefix[a + 1] = prefix[a] + win[act[a]].w;
    }
    double best_g = -1.0;
    Time best_z = 0.0, best_z2 = 0.0;
    for (std::size_t a = 0; a < act.size(); ++a) {
      if (a > 0 && win[act[a]].r <= win[act[a - 1]].r + kTimeEps) continue;
      const Time z = win[act[a]].r;
      for (std::size_t b = a; b < act.size(); ++b) {
        const Time z2 = win[act[b]].d;
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
    QES_ASSERT(best_g > 0.0);
    out.critical_speed = std::max(out.critical_speed, best_g);
    for (std::size_t k = 0; k < n; ++k) {
      if (!win[k].active) continue;
      if (win[k].r >= best_z - kTimeEps && win[k].d <= best_z2 + kTimeEps) {
        out.speeds[k] = best_g;
        win[k].active = false;
        --remaining;
      } else {
        win[k].r = compress(win[k].r, best_z, best_z2);
        win[k].d = compress(win[k].d, best_z, best_z2);
      }
    }
  }
  Time t = 0.0;
  if (n > 0) t = set[0].release;
  for (std::size_t k = 0; k < n; ++k) {
    const Job& j = set[k];
    if (j.demand <= kTimeEps) continue;
    const Speed s = out.speeds[k];
    const Time start = std::max(t, j.release);
    const Time finish = start + j.demand / s;
    out.schedule.push({start, finish, j.id, s});
    t = finish;
  }
  return out;
}

YdsResult ref_yds_capped(const AgreeableJobSet& set, Speed max_speed,
                         double max_rel_excess = 1e-4) {
  YdsResult out = ref_yds(set);
  if (out.critical_speed <= max_speed) return out;
  const double excess = out.critical_speed / max_speed - 1.0;
  QES_ASSERT(excess <= max_rel_excess);
  const double scale = (1.0 - 1e-12) / (1.0 + excess);
  std::vector<Job> scaled(set.jobs().begin(), set.jobs().end());
  for (Job& j : scaled) j.demand *= scale;
  return ref_yds(AgreeableJobSet(std::move(scaled)));
}

// The water-fill as it was: one event list, sorted from scratch.
WaterfillResult ref_waterfill(std::span<const Work> caps,
                              std::span<const Work> baselines,
                              Work capacity) {
  struct Event {
    double value;
    int delta;
  };
  const std::size_t n = caps.size();
  WaterfillResult out;
  out.alloc.assign(n, 0.0);
  Work remaining_total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    remaining_total += std::max(0.0, caps[i] - baselines[i]);
  }
  if (capacity + kTimeEps >= remaining_total) {
    for (std::size_t i = 0; i < n; ++i) {
      out.alloc[i] = std::max(0.0, caps[i] - baselines[i]);
    }
    out.level = std::numeric_limits<double>::infinity();
    out.all_satisfied = true;
    out.used = remaining_total;
    return out;
  }
  if (capacity <= 0.0 || n == 0) {
    double min_base = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < n; ++i) {
      if (caps[i] > baselines[i] + kTimeEps) {
        min_base = std::min(min_base, static_cast<double>(baselines[i]));
      }
    }
    out.level = std::isfinite(min_base) ? min_base : 0.0;
    return out;
  }
  std::vector<Event> events;
  for (std::size_t i = 0; i < n; ++i) {
    if (caps[i] > baselines[i] + kTimeEps) {
      events.push_back({static_cast<double>(baselines[i]), +1});
      events.push_back({static_cast<double>(caps[i]), -1});
    }
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.value != b.value) return a.value < b.value;
    return a.delta > b.delta;
  });
  double level = events.front().value;
  Work poured = 0.0;
  int active = 0;
  std::size_t k = 0;
  while (k < events.size()) {
    while (k < events.size() && events[k].value <= level + kTimeEps) {
      active += events[k].delta;
      ++k;
    }
    if (k == events.size()) break;
    const double next = events[k].value;
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
  out.level = level;
  for (std::size_t i = 0; i < n; ++i) {
    out.alloc[i] =
        std::clamp(level - baselines[i], 0.0, caps[i] - baselines[i]);
    out.used += out.alloc[i];
  }
  return out;
}

// Quality-OPT as it was: a full water-fill per candidate interval.
QualityOptResult ref_quality_opt(const AgreeableJobSet& set, Speed speed,
                                 std::span<const Work> baselines = {}) {
  struct Window {
    Time r;
    Time d;
    Work w;
    Work base;
    bool active;
  };
  const std::size_t n = set.size();
  QualityOptResult out;
  out.volumes.assign(n, 0.0);
  std::vector<Window> win(n);
  std::size_t remaining = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const Job& j = set[k];
    const Work base = baselines.empty() ? 0.0 : baselines[k];
    const bool active = j.demand - base > kTimeEps;
    win[k] = {j.release, j.deadline, j.demand, base, active};
    if (active) ++remaining;
  }
  while (remaining > 0) {
    std::vector<std::size_t> act;
    for (std::size_t k = 0; k < n; ++k) {
      if (win[k].active) act.push_back(k);
    }
    double best_level = std::numeric_limits<double>::infinity();
    Time best_z = 0.0, best_z2 = 0.0;
    bool found = false;
    for (std::size_t a = 0; a < act.size(); ++a) {
      if (a > 0 && win[act[a]].r <= win[act[a - 1]].r + kTimeEps) continue;
      const Time z = win[act[a]].r;
      std::vector<Work> caps, bases;
      for (std::size_t b = a; b < act.size(); ++b) {
        caps.push_back(win[act[b]].w);
        bases.push_back(win[act[b]].base);
        const Time z2 = win[act[b]].d;
        const double level = ref_waterfill(caps, bases, speed * (z2 - z)).level;
        if (level < best_level - 1e-9 || !found) {
          best_level = level;
          best_z = z;
          best_z2 = z2;
          found = true;
        }
      }
    }
    if (!std::isfinite(best_level)) {
      for (std::size_t k : act) {
        out.volumes[k] = win[k].w - win[k].base;
        win[k].active = false;
      }
      break;
    }
    std::vector<std::size_t> contained;
    std::vector<Work> caps, bases;
    for (std::size_t k : act) {
      if (win[k].r >= best_z - kTimeEps && win[k].d <= best_z2 + kTimeEps) {
        contained.push_back(k);
        caps.push_back(win[k].w);
        bases.push_back(win[k].base);
      }
    }
    const WaterfillResult wf =
        ref_waterfill(caps, bases, speed * (best_z2 - best_z));
    for (std::size_t c = 0; c < contained.size(); ++c) {
      out.volumes[contained[c]] = wf.alloc[c];
      win[contained[c]].active = false;
      --remaining;
    }
    for (std::size_t k : act) {
      if (!win[k].active) continue;
      win[k].r = compress(win[k].r, best_z, best_z2);
      win[k].d = compress(win[k].d, best_z, best_z2);
    }
  }
  Time t = n > 0 ? set[0].release : 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const Job& j = set[k];
    const Work p = out.volumes[k];
    if (p <= kTimeEps) continue;
    const Time start = std::max(t, j.release);
    const Time finish = start + p / speed;
    out.schedule.push({start, finish, j.id, speed});
    t = finish;
  }
  return out;
}

// Online-QE as it was: both steps through an AgreeableJobSet.
OnlineQeResult ref_online_qe(Time now, std::span<const ReadyJob> jobs,
                             Speed max_speed) {
  OnlineQeResult out;
  std::vector<Job> adjusted;
  for (const ReadyJob& rj : jobs) {
    if (rj.deadline <= now + kTimeEps) continue;
    if (rj.demand - rj.processed <= kTimeEps) continue;
    Job j;
    j.id = rj.id;
    j.deadline = rj.deadline;
    j.demand = rj.demand;
    j.release = rj.running ? now - rj.processed / max_speed : now;
    adjusted.push_back(j);
  }
  if (adjusted.empty()) return out;
  const AgreeableJobSet step1_set(adjusted);
  const QualityOptResult q = ref_quality_opt(step1_set, max_speed);
  std::vector<Job> step2;
  for (std::size_t k = 0; k < step1_set.size(); ++k) {
    Job j = step1_set[k];
    Work planned = q.volumes[k];
    if (j.release < now - kTimeEps) planned -= (now - j.release) * max_speed;
    if (planned <= kTimeEps) continue;
    j.release = now;
    j.demand = planned;
    out.planned[j.id] = planned;
    step2.push_back(j);
  }
  if (step2.empty()) return out;
  out.schedule = ref_yds_capped(AgreeableJobSet(std::move(step2)), max_speed)
                     .schedule;
  for (auto& [id, planned] : out.planned) {
    planned = std::min(planned, out.schedule.volume_of(id));
  }
  return out;
}

// ---------------------------------------------------------------------
// Inputs.
// ---------------------------------------------------------------------

// A random agreeable list in (release, deadline, id) order. `tied`
// releases every job at one instant (the online shape); otherwise
// releases are distinct draws with an occasional exact repeat.
std::vector<Job> random_jobs(Xoshiro256& rng, std::size_t n, bool tied) {
  std::vector<Job> jobs;
  Time prev_deadline = 0.0;
  Time release = rng.uniform(0.0, 50.0);
  std::vector<Time> releases;
  for (std::size_t k = 0; k < n; ++k) {
    if (!tied && !(k > 0 && rng.bernoulli(0.15))) {
      release = rng.uniform(0.0, 400.0);
    }
    releases.push_back(release);
  }
  std::sort(releases.begin(), releases.end());
  for (std::size_t k = 0; k < n; ++k) {
    Job j;
    j.id = k + 1;
    j.release = releases[k];
    Time d = j.release + rng.uniform(5.0, 200.0);
    // Exact deadline ties and near-ties inside kTimeEps.
    if (k > 0 && rng.bernoulli(0.1)) d = prev_deadline;
    if (k > 0 && rng.bernoulli(0.05)) d = prev_deadline + 0.5 * kTimeEps;
    j.deadline = std::max({d, prev_deadline, j.release + 1.0});
    prev_deadline = j.deadline;
    // Demands from a small set (equal caps tie in the sweep) or drawn.
    j.demand = rng.bernoulli(0.3)
                   ? 10.0 * static_cast<double>(1 + rng.uniform_index(4))
                   : rng.uniform(0.5, 120.0);
    jobs.push_back(j);
  }
  return jobs;
}

std::vector<Work> random_baselines(Xoshiro256& rng,
                                   const std::vector<Job>& jobs) {
  std::vector<Work> b;
  for (const Job& j : jobs) {
    const double u = rng.next_double();
    b.push_back(u < 0.4 ? 0.0 : u < 0.5 ? j.demand : rng.uniform(0.0, j.demand));
  }
  return b;
}

// ---------------------------------------------------------------------
// WF.
// ---------------------------------------------------------------------

void expect_wf_matches(const std::vector<Watts>& req, Watts budget,
                       WaterfillPowerScratch& scratch) {
  std::vector<Watts> want;
  std::vector<Watts> got;
  ref_waterfill_power(req, budget, want);
  waterfill_power_into(req, budget, scratch, got);
  ASSERT_TRUE(same_values(got, want))
      << "m = " << req.size() << ", budget = " << budget;
}

TEST(KernelReference, SortedWaterfillPowerMatchesTheRoundLoop) {
  Xoshiro256 rng(0x3F17);
  WaterfillPowerScratch scratch;
  const std::size_t sizes[] = {1, 2, 3, 5, 8, 16, 63, 64, 65, 100, 128};
  for (int iter = 0; iter < 20000; ++iter) {
    const std::size_t m = sizes[rng.uniform_index(std::size(sizes))];
    const int shape = static_cast<int>(rng.uniform_index(6));
    std::vector<Watts> req(m);
    for (Watts& h : req) {
      switch (shape) {
        case 0:  // distinct
          h = rng.uniform(0.0, 40.0);
          break;
        case 1:  // few values: ties
          h = 5.0 * static_cast<double>(rng.uniform_index(4));
          break;
        case 2:  // clustered within kTimeEps of each other
          h = 7.0 + kTimeEps * rng.uniform(-2.0, 2.0);
          break;
        case 3:  // around kTimeEps itself, with zeros
          h = rng.bernoulli(0.3) ? 0.0 : kTimeEps * rng.uniform(0.0, 3.0);
          break;
        case 4:  // zeros among distinct values
          h = rng.bernoulli(0.4) ? 0.0 : rng.uniform(0.0, 20.0);
          break;
        default:  // raises that leave a remainder within kTimeEps
          h = 1.0 + kTimeEps * static_cast<double>(rng.uniform_index(3));
          break;
      }
    }
    const Watts total = std::accumulate(req.begin(), req.end(), 0.0);
    Watts budget = 0.0;
    switch (rng.uniform_index(5)) {
      case 0: budget = 0.0; break;
      case 1: budget = total; break;
      case 2: budget = total * rng.uniform(1.0, 2.0) + 1.0; break;
      case 3: budget = kTimeEps * rng.uniform(0.0, 2.0); break;
      default: budget = total * rng.uniform(0.0, 1.0); break;
    }
    expect_wf_matches(req, budget, scratch);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(KernelReference, SortedWaterfillPowerMatchesOnEdgeCases) {
  WaterfillPowerScratch scratch;
  expect_wf_matches({}, 10.0, scratch);
  expect_wf_matches({0.0}, 10.0, scratch);
  expect_wf_matches({3.0}, 0.0, scratch);
  expect_wf_matches({3.0}, 1.0, scratch);
  expect_wf_matches({3.0}, 5.0, scratch);
  expect_wf_matches({kTimeEps, kTimeEps, 2 * kTimeEps}, 1.0, scratch);
  expect_wf_matches({4.0, 4.0, 4.0, 4.0}, 10.0, scratch);
  expect_wf_matches({4.0, 4.0 + 0.5 * kTimeEps, 4.0 - 0.5 * kTimeEps, 9.0},
                    30.0, scratch);
  std::vector<Watts> many(96);
  for (std::size_t i = 0; i < many.size(); ++i) {
    many[i] = 0.25 * static_cast<double>(i % 17) +
              0.1 * static_cast<double>(i) / 96.0;
  }
  for (Watts budget : {0.0, 1.0, 50.0, 150.0, 1e6}) {
    expect_wf_matches(many, budget, scratch);
  }
}

// ---------------------------------------------------------------------
// YDS.
// ---------------------------------------------------------------------

void expect_yds_matches(const std::vector<Job>& jobs, YdsScratch& scratch) {
  // Shuffled, the list still has to reach YDS in the set's order.
  std::vector<Job> shuffled(jobs.rbegin(), jobs.rend());
  const AgreeableJobSet set(shuffled);
  const YdsResult want = ref_yds(set);
  YdsResult got;
  yds_schedule_into(jobs, scratch, got);
  ASSERT_TRUE(same_values(got.speeds, want.speeds));
  ASSERT_TRUE(same_bits(got.critical_speed, want.critical_speed));
  ASSERT_TRUE(same_schedule(got.schedule, want.schedule));
}

TEST(KernelReference, YdsSpanMatchesTheJobSetPath) {
  Xoshiro256 rng(0x7D5);
  YdsScratch scratch;
  for (int iter = 0; iter < 600; ++iter) {
    const bool tied = iter % 2 == 0;
    const std::size_t n = 1 + rng.uniform_index(tied ? 24 : 40);
    std::vector<Job> jobs = random_jobs(rng, n, tied);
    if (rng.bernoulli(0.2)) jobs[rng.uniform_index(n)].demand = 0.0;
    expect_yds_matches(jobs, scratch);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(KernelReference, CappedYdsRescaleMatchesTheJobSetPath) {
  Xoshiro256 rng(0xCA9);
  YdsScratch scratch;
  int rescaled = 0;
  for (int iter = 0; iter < 400; ++iter) {
    const bool tied = iter % 2 == 0;
    const std::vector<Job> jobs =
        random_jobs(rng, 1 + rng.uniform_index(20), tied);
    const Speed top = ref_yds(AgreeableJobSet(jobs)).critical_speed;
    // A cap a hair under the critical speed forces the rescale.
    const Speed cap = top * (1.0 - rng.uniform(0.0, 5e-5));
    const YdsResult want = ref_yds_capped(AgreeableJobSet(jobs), cap);
    YdsResult got;
    yds_schedule_capped_into(jobs, cap, scratch, got);
    ASSERT_TRUE(same_values(got.speeds, want.speeds));
    ASSERT_TRUE(same_bits(got.critical_speed, want.critical_speed));
    ASSERT_TRUE(same_schedule(got.schedule, want.schedule));
    rescaled += cap < top;
  }
  EXPECT_GT(rescaled, 300);
}

// ---------------------------------------------------------------------
// Quality-OPT.
// ---------------------------------------------------------------------

void expect_qopt_matches(const std::vector<Job>& jobs, Speed speed,
                         std::span<const Work> baselines,
                         QualityOptScratch& scratch) {
  const QualityOptResult want =
      ref_quality_opt(AgreeableJobSet(jobs), speed, baselines);
  QualityOptResult got;
  quality_opt_into(jobs, speed, baselines, scratch, got);
  ASSERT_TRUE(same_values(got.volumes, want.volumes))
      << jobs.size() << " jobs at speed " << speed;
  ASSERT_TRUE(same_schedule(got.schedule, want.schedule));
}

TEST(KernelReference, QualityOptSearchMatchesTheFullWaterfillSearch) {
  Xoshiro256 rng(0x9E7);
  QualityOptScratch scratch;
  for (int iter = 0; iter < 900; ++iter) {
    const bool tied = iter % 3 == 0;
    const std::size_t n = 1 + rng.uniform_index(tied ? 30 : 48);
    const std::vector<Job> jobs = random_jobs(rng, n, tied);
    // From ample capacity down to heavy deprivation.
    const Speed speed = rng.uniform(0.02, 2.0);
    const std::vector<Work> baselines =
        iter % 4 == 1 ? random_baselines(rng, jobs) : std::vector<Work>{};
    expect_qopt_matches(jobs, speed, baselines, scratch);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(KernelReference, QualityOptSearchMatchesOnTheCorpus) {
  namespace fs = std::filesystem;
  QualityOptScratch scratch;
  std::size_t sets = 0;
  for (const fs::directory_entry& e :
       fs::directory_iterator(QES_CORPUS_DIR)) {
    if (e.path().extension() != ".json") continue;
    SCOPED_TRACE(e.path().string());
    scenario::ScenarioSpec spec;
    try {
      spec = scenario::load_scenario_file(e.path().string());
    } catch (const std::invalid_argument&) {
      continue;  // malformed-by-design corpus member
    }
    std::vector<Job> jobs = cli::make_jobs(spec.workload);
    // The reference's cost grows as n^3 log n per round; the first 160
    // arrivals already span several busy intervals.
    if (jobs.size() > 160) jobs.resize(160);
    const AgreeableJobSet set(jobs);
    const std::vector<Job> ordered(set.jobs().begin(), set.jobs().end());
    // A node's QE-OPT bound speed, and a fifth of it.
    const double m = static_cast<double>(spec.cores);
    const Speed aggregate =
        m * spec.power_model.speed_for_dynamic_power(spec.power_budget / m);
    for (Speed s : {aggregate, 0.2 * aggregate}) {
      expect_qopt_matches(ordered, s, {}, scratch);
      if (::testing::Test::HasFatalFailure()) return;
    }
    ++sets;
  }
  EXPECT_GE(sets, 4u);
}

// ---------------------------------------------------------------------
// Online-QE.
// ---------------------------------------------------------------------

void expect_online_qe_matches(Time now, const std::vector<ReadyJob>& ready,
                              Speed max_speed, OnlineQeScratch& scratch) {
  const OnlineQeResult want = ref_online_qe(now, ready, max_speed);
  OnlineQeResult got;
  online_qe_into(now, ready, max_speed, scratch, got);
  ASSERT_TRUE(same_schedule(got.schedule, want.schedule));
  ASSERT_EQ(got.planned.size(), want.planned.size());
  auto w = want.planned.begin();
  for (const auto& [id, planned] : got.planned) {
    ASSERT_EQ(id, w->first);
    ASSERT_TRUE(same_bits(planned, w->second));
    ++w;
  }
}

TEST(KernelReference, OnlineQeMatchesTheJobSetPath) {
  Xoshiro256 rng(0x0E1);
  OnlineQeScratch scratch;
  for (int iter = 0; iter < 600; ++iter) {
    const Time now = rng.uniform(0.0, 1000.0);
    const std::size_t n = 1 + rng.uniform_index(24);
    std::vector<ReadyJob> ready;
    Time d = now + rng.uniform(1.0, 40.0);
    for (std::size_t k = 0; k < n; ++k) {
      ReadyJob rj;
      rj.id = 100 + k;
      rj.deadline = d;
      rj.demand = rng.uniform(0.5, 60.0);
      ready.push_back(rj);
      d += rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.0, 30.0);
    }
    if (rng.bernoulli(0.6)) {
      ready[0].running = true;
      ready[0].processed = ready[0].demand * rng.uniform(0.0, 0.9);
    }
    // Callers may list the ready jobs in any order.
    if (iter % 3 == 2) std::reverse(ready.begin(), ready.end());
    expect_online_qe_matches(now, ready, rng.uniform(0.05, 3.0), scratch);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(KernelReference, OnlineQeSortsAStepTwoListTheRunningJobTrails) {
  // The running job carries prior volume, so its rewound release puts it
  // first in step 1; its deadline trails job 1's by under kTimeEps, so
  // re-released at `now` in step 2 it sorts second.
  const Time now = 100.0;
  const std::vector<ReadyJob> ready = {
      {.id = 2, .deadline = 150.0 + 0.5 * kTimeEps, .demand = 30.0,
       .processed = 5.0, .running = true},
      {.id = 1, .deadline = 150.0, .demand = 20.0},
      {.id = 3, .deadline = 180.0, .demand = 25.0}};
  OnlineQeScratch scratch;
  for (Speed s : {0.3, 1.0, 4.0}) {
    expect_online_qe_matches(now, ready, s, scratch);
    if (::testing::Test::HasFatalFailure()) return;
  }
  const OnlineQeResult r = online_qe(now, ready, 0.3);
  ASSERT_GE(r.schedule.segments().size(), 2u);
  EXPECT_EQ(r.schedule.segments()[0].job, 1u);
}

}  // namespace
}  // namespace qes
