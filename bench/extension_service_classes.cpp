// Extension: differentiated service classes (premium vs regular).
//
// The paper weighs every request equally; production services do not.
// This bench overloads a core with a mix of 20% premium (weight 4) and
// 80% regular (weight 1) requests and compares the weight-blind
// Quality-OPT allocation against the weighted generalization: premium
// quality rises sharply for a modest regular-class cost, and the
// weighted objective strictly improves.
#include <iostream>

#include "bench_util.hpp"
#include "sched/quality_opt.hpp"
#include "sched/weighted_quality.hpp"

int main() {
  using namespace qes;
  using namespace qes::bench;
  std::printf("=== Extension: weighted quality for service classes ===\n");
  std::printf("20%% premium (weight 4) / 80%% regular (weight 1), one "
              "core, shared 150 ms window\n\n");

  const auto f = QualityFunction::exponential(0.003);
  Xoshiro256 rng(21);

  Table t({"load x capacity", "q_premium(blind)", "q_premium(weighted)",
           "q_regular(blind)", "q_regular(weighted)", "weighted objective "
           "gain %"});
  for (double load : {1.2, 1.6, 2.0, 3.0}) {
    double qp_blind = 0.0, qp_w = 0.0, qr_blind = 0.0, qr_w = 0.0;
    double obj_blind = 0.0, obj_w = 0.0;
    double np_total = 0.0, nr_total = 0.0;
    const int reps = 20;
    for (int rep = 0; rep < reps; ++rep) {
      // A burst sharing one 150 ms window on a 2 GHz core: capacity 300.
      const Work capacity = 300.0;
      std::vector<Job> jobs;
      std::vector<double> weights;
      Work total = 0.0;
      std::size_t k = 0;
      while (total < load * capacity) {
        Job j;
        j.id = ++k;
        j.release = 0.0;
        j.deadline = 150.0;
        j.demand = rng.uniform(80.0, 300.0);
        total += j.demand;
        jobs.push_back(j);
        weights.push_back(rng.bernoulli(0.2) ? 4.0 : 1.0);
      }
      AgreeableJobSet set(jobs);
      // NOTE: AgreeableJobSet sorts; same release/deadline => id order,
      // which matches the construction order, so weights stay aligned.
      const auto blind = quality_opt_schedule(set, 2.0);
      const auto smart = weighted_quality_opt_schedule(set.jobs(), 2.0, weights, f);
      for (std::size_t i = 0; i < set.size(); ++i) {
        const bool premium = weights[i] > 1.5;
        const double qb = f(blind.volumes[i]) / f(set[i].demand);
        const double qw = f(smart.volumes[i]) / f(set[i].demand);
        if (premium) {
          qp_blind += qb;
          qp_w += qw;
          np_total += 1.0;
        } else {
          qr_blind += qb;
          qr_w += qw;
          nr_total += 1.0;
        }
        obj_blind += weights[i] * f(blind.volumes[i]);
        obj_w += weights[i] * f(smart.volumes[i]);
      }
    }
    t.add_row({fmt(load, 1), fmt(qp_blind / np_total, 4),
               fmt(qp_w / np_total, 4), fmt(qr_blind / nr_total, 4),
               fmt(qr_w / nr_total, 4),
               fmt(100.0 * (obj_w - obj_blind) / obj_blind, 2)});
  }
  t.print(std::cout);
  std::printf("\n(the weighted allocator equalizes omega*f'(p): premium "
              "jobs sit ln(omega)/c ~ %0.f units above regular ones at "
              "interior optima)\n\n", std::log(4.0) / 0.003);

  // Server level: full DES on 16 cores with weighted planning enabled.
  std::printf("--- server level: DES vs DES[weighted], 16 cores ---\n");
  {
    const double secs = std::min(sim_seconds(), 120.0);
    Table t2({"rate", "premium q (DES)", "premium q (weighted)",
              "regular q (DES)", "regular q (weighted)"});
    for (double rate : {200.0, 230.0, 260.0}) {
      WorkloadConfig wl = paper_workload(secs);
      wl.arrival_rate = rate;
      wl.premium_fraction = 0.2;
      auto per_class = [&wl](const PolicyFactory& factory) {
        EngineConfig c;
        c.record_execution = false;
        Engine engine(c, generate_websearch_jobs(wl), factory());
        const RunResult run = engine.run();
        const auto fq = QualityFunction::exponential(0.003);
        double qp = 0.0, np = 0.0, qr = 0.0, nr = 0.0;
        for (const JobState& st : run.jobs) {
          const double q = fq(st.processed) / fq(st.job.demand);
          if (st.job.weight > 1.5) {
            qp += q;
            np += 1.0;
          } else {
            qr += q;
            nr += 1.0;
          }
        }
        return std::pair<double, double>(qp / np, qr / nr);
      };
      const auto plain = per_class([] { return make_des_policy(); });
      const auto smart =
          per_class([] { return make_des_policy({.weighted = true}); });
      t2.add_row({fmt(rate, 0), fmt(plain.first, 4), fmt(smart.first, 4),
                  fmt(plain.second, 4), fmt(smart.second, 4)});
    }
    t2.print(std::cout);
  }
  return 0;
}
