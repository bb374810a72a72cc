// What a workload run reports, and the measuring helpers every workload
// shares: named metrics with units, correctness checks, the result JSON
// line, clocks and process figures, a digest of simulated statistics,
// and the in-memory span log of a traced run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace qes::obs {
class Registry;
}  // namespace qes::obs

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Samples behind a percentile or median (0 when not a sample figure).
  std::size_t samples = 0;
};

/// Everything one workload run produces.
struct Outcome {
  std::vector<std::string> failures;  ///< correctness checks that failed
  std::uint64_t attempted = 0;        ///< requests or jobs offered
  /// Of those, the ones that failed: wire requests without exactly one
  /// REPLY, cluster jobs shed at routing or after a kill.
  std::uint64_t failed = 0;
  /// The metrics of the result line: BENCHMARK.json's end-to-end set
  /// untraced, its per-layer set traced.
  std::vector<Metric> metrics;
  /// Times of a layer only one workload runs: printed with their units
  /// and sample counts, kept out of the result line (see
  /// perfbench/README.md, "Per-layer metrics").
  std::vector<Metric> details;
  /// Human-readable lines printed before the result (curve, digest).
  std::vector<std::string> notes;

  void check(bool ok, const std::string& what);
  void add(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 0);
  void detail(const std::string& name, double value, const std::string& unit,
              std::size_t samples = 0);
  void note(const std::string& line) { notes.push_back(line); }
  [[nodiscard]] bool correct() const { return failures.empty(); }
};

/// The final stdout line: {"correct", "attempted", "failed", "metrics"}.
[[nodiscard]] std::string result_json(const Outcome& outcome);

/// The workloads, as bits of MetricSpec::run_by.
enum WorkloadBit : unsigned {
  kWireLadder = 1u,
  kSimDiurnal = 2u,
  kClusterTrough = 4u,
};
inline constexpr unsigned kEveryWorkload =
    kWireLadder | kSimDiurnal | kClusterTrough;

/// One metric of BENCHMARK.json.
struct MetricSpec {
  const char* name;
  const char* unit;
  unsigned run_by;  ///< the workloads that run the metric's layer
};

/// BENCHMARK.json's end_to_end (untraced) or per_layer (traced) metrics,
/// in its order. Every workload prints every one of them.
[[nodiscard]] const std::vector<MetricSpec>& manifest_metrics(bool traced);

/// Puts `out.metrics` in manifest order. A per-layer metric whose layer
/// `workload` does not run reads 0 (no frames, wakes or broker decisions
/// there). Fails `out` when the workload left out a metric of a layer it
/// runs, reported one the manifest lacks, or gave one another unit.
void order_as_manifest(Outcome& out, WorkloadBit workload, bool traced);

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where a traced run writes its spans at exit (CSV); empty = nowhere.
  std::string trace_path;
  /// Deliberately corrupt one reconciled count before the checks run, so
  /// the benchmark's tests can show that a violated check fails the run.
  bool violate = false;
  /// Tiny inputs for the benchmark's own smoke tests.
  bool smoke = false;
};

[[nodiscard]] std::int64_t now_ns();  ///< steady clock
[[nodiscard]] double seconds_since(std::int64_t start_ns);
[[nodiscard]] double thread_cpu_s();
[[nodiscard]] double process_cpu_s();
[[nodiscard]] double peak_rss_mb();  ///< ru_maxrss of this process
[[nodiscard]] int current_tid();
/// CPU time the hypervisor took from this machine's vCPUs (all CPUs,
/// from /proc/stat); 0 where the kernel does not report it.
[[nodiscard]] double host_steal_s();
/// utime + stime per thread of this process, from /proc/self/task.
[[nodiscard]] std::map<int, double> task_cpu_s();

/// The host's current speed: operations per thread-CPU second of a fixed
/// reference kernel (heap pushes and pops, logarithms and a sort, the
/// kind of work the planner and the event queue do), the mean of three
/// runs, about 210 ms. On a shared host the same single-threaded code ran
/// up to 70 % slower from one few-minute phase to the next, in CPU time
/// too.
[[nodiscard]] double host_speed();

/// A round figure near host_speed() on a 4-vCPU Xeon VM. A time measured
/// between two host_speed() readings is multiplied by their mean /
/// kReferenceSpeed, so it reads as if the host ran at this speed.
inline constexpr double kReferenceSpeed = 1.0e7;

[[nodiscard]] std::string format(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Adds the planner phase costs recorded in `registry`'s
/// qes_replan_phase_ms{plane=<plane>} family: mean µs per timed call of
/// C-RR, YDS and online QE (policy.crr_us, sched.yds_us,
/// sched.online_qe_us), the water-filling phase's estimated share of
/// `run_s` (policy.wf_share; its µs per call as a detail), and
/// policy.share, all phases' share. Phases are timed on 1 in 8 replans,
/// so only count and sum are used: the C-RR count is the number of timed
/// replans, and a timed sum is scaled by replans / timed replans. Returns
/// policy.share.
double add_policy_metrics(Outcome& out, const qes::obs::Registry& registry,
                          const char* plane, std::size_t replans,
                          double run_s);

/// FNV-1a over the exact bytes of the values fed to it: any change to
/// simulated behaviour changes the digest.
class Digest {
 public:
  void add(double v);
  void add(std::uint64_t v);
  [[nodiscard]] std::string hex() const;

 private:
  void bytes(const void* p, std::size_t n);
  std::uint64_t h_ = 1469598103934665603ULL;
};

/// Spans of a traced run, kept in memory and written once at exit. One
/// id per request, replan or pull; the parent is the enclosing span.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  [[nodiscard]] std::uint64_t new_id() { return ++last_id_; }
  void add(const char* name, std::uint64_t id, std::uint64_t parent,
           std::int64_t start_ns, std::int64_t end_ns) {
    if (enabled_) spans_.push_back({name, id, parent, start_ns, end_ns});
  }
  /// CSV: name,id,parent,start_ns,end_ns. Returns false on an I/O error.
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t id, parent;
    std::int64_t start_ns, end_ns;
  };
  bool enabled_;
  std::uint64_t last_id_ = 0;
  std::vector<Span> spans_;
};

}  // namespace perfbench
