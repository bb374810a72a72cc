// qes_perfbench --workload <wire_ladder|sim_diurnal|cluster_trough>
//               --seed <n> --seconds <s> --trace <0|1>
//               [--trace-out <spans.csv>] [--smoke] [--violate]
//
// Runs one workload in this process. Prints notes (curve, digest, every
// metric with its unit and sample count), then as its last stdout line
// one JSON object {"correct", "attempted", "failed", "metrics"} holding
// BENCHMARK.json's end-to-end metrics (untraced) or per-layer metrics
// (traced). A failed correctness check prints the failures to stderr, no
// result, and exits 1; bad arguments exit 2.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "qes_perfbench: %s\nusage: qes_perfbench --workload "
               "<wire_ladder|sim_diurnal|cluster_trough> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <path>] [--smoke] "
               "[--violate]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions opts;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      opts.smoke = true;
    } else if (a == "--violate") {
      opts.violate = true;
    } else if (!has_value) {
      return usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      workload = argv[++i];
    } else if (a == "--seed") {
      char* end = nullptr;
      opts.seed = std::strtoull(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0') return usage("bad --seed");
    } else if (a == "--seconds") {
      opts.seconds = std::atof(argv[++i]);
      if (!(opts.seconds > 0.0 && opts.seconds <= 600.0)) {
        return usage("--seconds must be in (0, 600]");
      }
    } else if (a == "--trace") {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return usage("--trace must be 0 or 1");
      opts.trace = v == "1";
    } else if (a == "--trace-out") {
      opts.trace_path = argv[++i];
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }

  Outcome out;
  WorkloadBit bit = kWireLadder;
  try {
    if (workload == "wire_ladder") {
      bit = kWireLadder;
      out = run_wire_ladder(opts);
    } else if (workload == "sim_diurnal") {
      bit = kSimDiurnal;
      out = run_sim_diurnal(opts);
    } else if (workload == "cluster_trough") {
      bit = kClusterTrough;
      out = run_cluster_trough(opts);
    } else {
      return usage(("unknown --workload '" + workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qes_perfbench: %s failed: %s\n", workload.c_str(),
                 e.what());
    return 1;
  }

  order_as_manifest(out, bit, opts.trace);
  for (const Metric& m : out.metrics) {
    out.check(std::isfinite(m.value), m.name + " is a finite number");
  }
  for (const std::string& line : out.notes) std::printf("%s\n", line.c_str());
  if (!out.correct()) {
    std::fflush(stdout);
    for (const std::string& f : out.failures) {
      std::fprintf(stderr, "qes_perfbench: CHECK FAILED [%s]: %s\n",
                   workload.c_str(), f.c_str());
    }
    return 1;
  }
  for (const auto* list : {&out.metrics, &out.details}) {
    if (list == &out.details && !list->empty()) {
      std::printf("not in the result line:\n");
    }
    for (const Metric& m : *list) {
      std::printf("  %-28s %.6g %s", m.name.c_str(), m.value, m.unit.c_str());
      if (m.samples > 0) std::printf("  (%zu samples)", m.samples);
      std::printf("\n");
    }
  }
  std::printf("%s\n", result_json(out).c_str());
  return 0;
}
