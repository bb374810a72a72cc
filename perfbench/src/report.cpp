#include "report.hpp"

#include <dirent.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <functional>
#include <queue>
#include <sstream>
#include <vector>

#include "obs/registry.hpp"
#include "policy/des_planner.hpp"

namespace perfbench {

void Outcome::check(bool ok, const std::string& what) {
  if (!ok) failures.push_back(what);
}

void Outcome::add(const std::string& name, double value,
                  const std::string& unit, std::size_t samples) {
  metrics.push_back({name, value, unit, samples});
}

void Outcome::detail(const std::string& name, double value,
                     const std::string& unit, std::size_t samples) {
  details.push_back({name, value, unit, samples});
}

std::string result_json(const Outcome& outcome) {
  std::string out = format(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      outcome.correct() ? "true" : "false",
      static_cast<unsigned long long>(outcome.attempted),
      static_cast<unsigned long long>(outcome.failed));
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    // %.17g keeps every digit. main() refuses non-finite values, which
    // JSON cannot carry.
    out += format("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
  }
  out += "}}";
  return out;
}

const std::vector<MetricSpec>& manifest_metrics(bool traced) {
  static const std::vector<MetricSpec> kEndToEnd = {
      {"setup_s", "s", kEveryWorkload},
      {"cpu_us_per_job", "us", kEveryWorkload},
      {"latency_ms", "ms", kEveryWorkload},
      {"norm_quality", "ratio", kEveryWorkload},
      {"quality_per_joule", "1/J", kEveryWorkload},
      {"peak_rss_mb", "MB", kEveryWorkload},
  };
  static const std::vector<MetricSpec> kPerLayer = {
      {"sim.events", "count", kSimDiurnal},
      {"sim.self_share", "ratio", kSimDiurnal},
      {"workload.share", "ratio", kSimDiurnal},
      {"multicore.share", "ratio", kSimDiurnal},
      {"policy.replans", "count", kEveryWorkload},
      {"policy.crr_us", "us", kEveryWorkload},
      {"sched.yds_us", "us", kEveryWorkload},
      {"policy.wf_share", "ratio", kEveryWorkload},
      {"sched.online_qe_us", "us", kEveryWorkload},
      {"policy.share", "ratio", kEveryWorkload},
      {"runtime.ticks", "count", kWireLadder},
      {"runtime.waiting_p99", "jobs", kWireLadder},
      {"runtime.max_thread_util", "ratio", kWireLadder},
      {"runtime.pace_busy_frac", "ratio", kWireLadder},
      {"runtime.idle_polls", "count", kWireLadder},
      {"runq.pushed", "count", kWireLadder},
      {"runq.shed", "count", kWireLadder},
      {"runq.steal_ratio", "ratio", kWireLadder},
      {"net.frames_in", "count", kWireLadder},
      {"net.replies", "count", kWireLadder},
      {"core.wakes", "count", kEveryWorkload},
      {"cluster.broker_decisions", "count", kClusterTrough},
      {"cluster.redistributed", "count", kClusterTrough},
      {"cluster.self_share", "ratio", kClusterTrough},
      {"obs.trace_overhead", "ratio", kEveryWorkload},
  };
  return traced ? kPerLayer : kEndToEnd;
}

void order_as_manifest(Outcome& out, WorkloadBit workload, bool traced) {
  std::vector<Metric> ordered;
  for (const MetricSpec& spec : manifest_metrics(traced)) {
    const auto it = std::find_if(
        out.metrics.begin(), out.metrics.end(),
        [&](const Metric& m) { return m.name == spec.name; });
    if (it == out.metrics.end()) {
      out.check((spec.run_by & workload) == 0,
                std::string("the run reports ") + spec.name);
      ordered.push_back({spec.name, 0.0, spec.unit, 0});
      continue;
    }
    out.check(it->unit == spec.unit,
              format("%s is in %s, not %s", spec.name, spec.unit,
                     it->unit.c_str()));
    ordered.push_back(*it);
    out.metrics.erase(it);
  }
  for (const Metric& m : out.metrics) {
    out.check(false, m.name + " is a metric of BENCHMARK.json");
  }
  out.metrics = std::move(ordered);
}

std::int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

namespace {
double cpu_clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
}  // namespace

double thread_cpu_s() { return cpu_clock_s(CLOCK_THREAD_CPUTIME_ID); }
double process_cpu_s() { return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

int current_tid() { return static_cast<int>(syscall(SYS_gettid)); }

double host_steal_s() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  double v[8] = {};
  if (!(f >> cpu) || cpu != "cpu") return 0.0;
  for (double& x : v) f >> x;  // user nice system idle iowait irq softirq steal
  return v[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

std::map<int, double> task_cpu_s() {
  std::map<int, double> out;
  const double tick = static_cast<double>(sysconf(_SC_CLK_TCK));
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return out;
  while (dirent* e = readdir(dir)) {
    if (e->d_name[0] < '0' || e->d_name[0] > '9') continue;
    std::ifstream f(std::string("/proc/self/task/") + e->d_name + "/stat");
    std::string line;
    if (!std::getline(f, line)) continue;
    // Fields after the parenthesised command name: state is field 3,
    // utime and stime are fields 14 and 15.
    const std::size_t close = line.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream rest(line.substr(close + 2));
    std::string field;
    double utime = 0.0, stime = 0.0;
    for (int i = 3; i <= 15 && rest >> field; ++i) {
      if (i == 14) utime = std::atof(field.c_str());
      if (i == 15) stime = std::atof(field.c_str());
    }
    out[std::atoi(e->d_name)] = (utime + stime) / tick;
  }
  closedir(dir);
  return out;
}

namespace {
// Keeps the reference kernel's result alive.
volatile double g_host_speed_sink = 0.0;

/// One run of the reference kernel: pushes per thread-CPU second.
double reference_rate() {
  constexpr int kPushes = 600'000;
  constexpr std::size_t kHeapSize = 4096;  // 32 KB of doubles
  constexpr std::size_t kSortSize = 100'000;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  auto next = [&x] {  // xorshift64
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return static_cast<double>(x >> 11) * 0x1.0p-53;
  };
  const double t0 = thread_cpu_s();
  std::priority_queue<double, std::vector<double>, std::greater<>> heap;
  double acc = 0.0;
  for (int i = 0; i < kPushes; ++i) {
    heap.push(next() - std::log1p(static_cast<double>(i & 255)));
    if (heap.size() > kHeapSize) {
      acc += heap.top();
      heap.pop();
    }
  }
  std::vector<double> v(kSortSize);
  for (double& e : v) e = next();
  std::sort(v.begin(), v.end());
  g_host_speed_sink = acc + v[kSortSize / 2];
  return kPushes / (thread_cpu_s() - t0);
}

}  // namespace

double host_speed() {
  // One run read 25 % apart from the next on a shared host; the mean of
  // three is steady enough to scale a repetition by.
  return (reference_rate() + reference_rate() + reference_rate()) / 3.0;
}

std::string format(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  const int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  std::string out(n > 0 ? static_cast<std::size_t>(n) : 0, '\0');
  if (n > 0) std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
  va_end(ap2);
  return out;
}

double add_policy_metrics(Outcome& out, const qes::obs::Registry& registry,
                          const char* plane, std::size_t replans,
                          double run_s) {
  enum Phase { kCrr, kYds, kWf, kOnlineQe, kPhases };
  static constexpr const char* kNames[kPhases] = {"crr", "yds", "wf",
                                                  "online_qe"};
  double sum_ms[kPhases] = {};
  std::size_t count[kPhases] = {};
  double total_ms = 0.0;
  for (int i = 0; i < kPhases; ++i) {
    const qes::obs::Histogram* h = registry.find_histogram(
        qes::policy::kReplanPhaseMetric, {{"plane", plane}, {"phase", kNames[i]}});
    count[i] = h != nullptr ? static_cast<std::size_t>(h->count()) : 0;
    sum_ms[i] = h != nullptr ? h->sum() : 0.0;
    total_ms += sum_ms[i];
  }
  auto mean_us = [&](Phase p) {
    return count[p] > 0 ? 1e3 * sum_ms[p] / static_cast<double>(count[p]) : 0.0;
  };
  // The C-RR phase runs on every timed replan.
  auto share = [&](double ms) {
    return count[kCrr] > 0 && run_s > 0.0
               ? 1e-3 * ms * static_cast<double>(replans) /
                     static_cast<double>(count[kCrr]) / run_s
               : 0.0;
  };
  out.add("policy.crr_us", mean_us(kCrr), "us", count[kCrr]);
  out.add("sched.yds_us", mean_us(kYds), "us", count[kYds]);
  // Water-filling runs only when a plan overshoots H: never on
  // cluster_trough, where its time per call would read 0.
  out.add("policy.wf_share", share(sum_ms[kWf]), "ratio");
  if (count[kWf] > 0) out.detail("policy.wf_us", mean_us(kWf), "us", count[kWf]);
  out.add("sched.online_qe_us", mean_us(kOnlineQe), "us", count[kOnlineQe]);
  const double total_share = share(total_ms);
  out.add("policy.share", total_share, "ratio");
  return total_share;
}

void Digest::bytes(const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= b[i];
    h_ *= 1099511628211ULL;
  }
}

void Digest::add(double v) { bytes(&v, sizeof v); }
void Digest::add(std::uint64_t v) { bytes(&v, sizeof v); }

std::string Digest::hex() const {
  return format("%016llx", static_cast<unsigned long long>(h_));
}

bool SpanLog::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("name,id,parent,start_ns,end_ns\n", f);
  for (const Span& s : spans_) {
    std::fprintf(f, "%s,%llu,%llu,%lld,%lld\n", s.name,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
