// wire_ladder: an in-process runtime::Server on loopback, configured like
// bench/e2e_latency (8 model cores, b = 0, 150 virtual-ms deadlines,
// time_scale 50), driven by the benchmark's own single-threaded
// open-loop Poisson driver. It is the only workload that runs net, runq,
// the pacing workers and the trigger thread.
//
// After an unmeasured warm-up step, the run holds a steady step well
// under the knee (latency, CPU per job, quality, peak RSS), then climbs a
// fixed ladder of offered rates and stops at the first step that fails.
// The steady step's figures are gated: a steady step that fails its
// verdict runs again, and the run fails if its last attempt is invalid or
// its backlog grew. Each ladder step runs once.
// Every step starts a fresh server: RuntimeCore and Server keep one entry
// (about 175 B) per admitted job, so a server lives for one step.
//
// The driver reuses only net::encode_submit and net::FrameDecoder. Its
// schedule is fixed from the seed before sending; every request is timed
// from its scheduled instant to its REPLY, so a stall in the server or
// the driver shows as latency of the requests behind it.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/prng.hpp"
#include "net/frame.hpp"
#include "net/socket_util.hpp"
#include "obs/http_exporter.hpp"
#include "runtime/server.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kModelCores = 8;
// Under the model's own capacity (8 cores at 20 W serve about 580 of
// these jobs per virtual second; 20k req/s is 400) and far under the
// host's knee, so quality does not hinge on drain timing.
constexpr double kSteadyRate = 20'000.0;
// Offered rates above the steady step, in req/s. The ladder stops at the
// first failing step; the top is far above the knee of a 4-CPU host so
// that a faster server still finds its limit.
constexpr std::array<double, 13> kLadder = {
    80'000,  100'000, 120'000, 135'000, 150'000, 165'000, 180'000,
    200'000, 220'000, 240'000, 270'000, 300'000, 340'000};
// Step timing, in seconds of the send schedule. The first kWarmupS of a
// step is sent and checked but excluded from its latency figures; the
// rest is cut into kWindowS windows. Host scheduling stalls of several
// ms come and go on a shared 4-CPU host, so a step's p99 is the median
// of its windows' exact p99s, not one p99 over the whole step.
constexpr double kWarmupS = 0.5;
constexpr double kWindowS = 0.25;
constexpr int kSteadyWindows = 20;
constexpr int kStepWindows = 10;
// An unmeasured first step: the process's first seconds of serving
// (first-touch page faults, allocator growth) stalled the driver in about
// one run in three.
constexpr double kProcessWarmupS = 1.5;
// The steady step's rate is far under the knee, so it fails its verdict
// only when a burst of host steal (up to half the vCPU time for seconds)
// stalls the driver or the server. Its figures are gated, so a failed
// steady step runs again, up to this many times in all.
constexpr int kSteadyAttempts = 3;
constexpr double kStallTimeoutS = 10.0;

struct Schedule {
  std::vector<std::int64_t> at_ns;  ///< offset from the step's start
  std::vector<double> demand;
};

Schedule make_schedule(double rate, std::size_t n, std::uint64_t seed) {
  Schedule s;
  s.at_ns.resize(n);
  s.demand.resize(n);
  qes::Xoshiro256 rng(seed);
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    t += rng.exponential(rate);
    s.at_ns[i] = static_cast<std::int64_t>(t * 1e9);
    // Small demands, as in bench/e2e_latency: admitted jobs finish inside
    // the horizon, so replies carry real qualities.
    s.demand[i] = rng.uniform(5.0, 50.0);
  }
  return s;
}

/// What the driver saw for one step.
struct Drive {
  std::int64_t start_ns = 0;  ///< absolute instant of schedule offset 0
  std::vector<std::int64_t> latency_ns;  ///< scheduled send -> REPLY
  std::vector<std::int64_t> lag_ns;      ///< scheduled -> actual send
  std::vector<std::uint8_t> replies;     ///< REPLY frames per request
  std::vector<std::uint8_t> shed;        ///< REPLY said shed
  double reply_quality = 0.0;
  std::uint64_t sent = 0, replied = 0, shed_count = 0, duplicates = 0,
                unknown = 0;
  bool decode_error = false;
  bool stalled = false;
  double cpu_s = 0.0;   ///< driver thread CPU during the step
  double wall_s = 0.0;  ///< first scheduled send to last REPLY
};

/// One open-loop client: a few nonblocking loopback connections served
/// by one thread that sends on schedule and reads replies in between.
class Driver {
 public:
  Driver(int port, int connections) {
    for (int i = 0; i < connections; ++i) {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) throw std::runtime_error("driver: socket() failed");
      conns_.push_back(Conn{fd, {}, 0, {}});
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(static_cast<std::uint16_t>(port));
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
        throw std::runtime_error("driver: connect() failed");
      }
      qes::net::set_tcp_nodelay(fd);
      qes::net::set_nonblocking(fd);
    }
  }
  ~Driver() {
    for (Conn& c : conns_) ::close(c.fd);
  }
  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  Drive run(const Schedule& s, std::uint64_t corrupt_replies);

 private:
  struct Conn {
    int fd;
    std::string out;
    std::size_t out_off;
    qes::net::FrameDecoder dec;
  };
  bool flush(Conn& c);
  void read_replies(Conn& c, const Schedule& s, Drive& d, std::int64_t now);

  std::vector<Conn> conns_;
  std::vector<char> buf_ = std::vector<char>(1 << 16);
};

bool Driver::flush(Conn& c) {
  while (c.out_off < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      c.out_off += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  c.out.clear();
  c.out_off = 0;
  return true;
}

void Driver::read_replies(Conn& c, const Schedule& s, Drive& d,
                          std::int64_t now) {
  for (;;) {
    const ssize_t n = ::recv(c.fd, buf_.data(), buf_.size(), MSG_DONTWAIT);
    if (n <= 0) break;
    c.dec.feed(buf_.data(), static_cast<std::size_t>(n));
    qes::net::Frame f;
    for (;;) {
      const auto r = c.dec.next(&f);
      if (r == qes::net::FrameDecoder::Result::kNeedMore) break;
      if (r == qes::net::FrameDecoder::Result::kError ||
          f.type != qes::net::FrameType::kReply) {
        d.decode_error = true;
        break;
      }
      const std::uint64_t idx = f.reply.req_id - 1;
      if (f.reply.req_id == 0 || idx >= d.sent) {
        ++d.unknown;
        continue;
      }
      if (d.replies[idx]++ > 0) {
        ++d.duplicates;
        continue;
      }
      ++d.replied;
      d.latency_ns[idx] = now - (d.start_ns + s.at_ns[idx]);
      if (f.reply.status == qes::net::ReplyStatus::kShed) {
        d.shed[idx] = 1;
        ++d.shed_count;
      }
      d.reply_quality += f.reply.quality;
    }
    now = now_ns();
  }
}

Drive Driver::run(const Schedule& s, std::uint64_t corrupt_replies) {
  const std::size_t n = s.at_ns.size();
  Drive d;
  d.latency_ns.assign(n, 0);
  d.lag_ns.assign(n, 0);
  d.replies.assign(n, 0);
  d.shed.assign(n, 0);
  std::vector<pollfd> pfds(conns_.size());
  // Precise wake-ups for the send schedule; restored before any server
  // thread of a later step is created, since threads inherit it.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const double cpu0 = thread_cpu_s();
  d.start_ns = now_ns() + 1'000'000;
  std::int64_t last_progress = d.start_ns;
  std::size_t next = 0;
  bool io_error = false;
  while (d.replied < n && !io_error && !d.decode_error) {
    std::int64_t now = now_ns();
    while (next < n && d.start_ns + s.at_ns[next] <= now) {
      qes::net::SubmitFrame f;
      f.req_id = next + 1;
      f.demand = s.demand[next];
      qes::net::encode_submit(f, conns_[next % conns_.size()].out);
      d.lag_ns[next] = now - (d.start_ns + s.at_ns[next]);
      ++next;
    }
    d.sent = next;
    bool want_out = false;
    for (Conn& c : conns_) {
      io_error |= !flush(c);
      want_out |= c.out_off < c.out.size();
    }
    std::int64_t wait_ns =
        next < n ? d.start_ns + s.at_ns[next] - now_ns() : 20'000'000;
    wait_ns = std::max<std::int64_t>(wait_ns, 0);
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      pfds[i] = {conns_[i].fd,
                 static_cast<short>(POLLIN | (want_out ? POLLOUT : 0)), 0};
    }
    const timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                      static_cast<long>(wait_ns % 1'000'000'000)};
    const int ready =
        ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
    if (ready > 0) {
      now = now_ns();
      const std::uint64_t before = d.replied;
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        if (pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) {
          read_replies(conns_[i], s, d, now);
        }
      }
      if (d.replied != before) last_progress = now;
    }
    if (next == n &&
        static_cast<double>(now_ns() - last_progress) * 1e-9 > kStallTimeoutS) {
      d.stalled = true;
      break;
    }
  }
  d.cpu_s = thread_cpu_s() - cpu0;
  d.wall_s = static_cast<double>(now_ns() - d.start_ns) * 1e-9;
  ::prctl(PR_SET_TIMERSLACK, 0UL, 0UL, 0UL, 0UL);
  // A deliberately violated check (benchmark tests): forget replies.
  d.replied -= std::min(d.replied, corrupt_replies);
  return d;
}

/// Everything one step measured and reconciled.
struct Step {
  StepSummary summary;
  StepVerdict verdict;
  double setup_s = 0.0;
  double cpu_us_per_job = 0.0;
  double max_thread_util = 0.0;
  double driver_cpu_s = 0.0;
  /// Host steal over the step, as a share of all vCPUs. Printed in the
  /// curve: where the hypervisor steals vCPU time in bursts, it explains
  /// a step's latency tail.
  double steal_frac = 0.0;
  qes::RunStats stats;
  std::uint64_t lost = 0;
  // Per-layer readings.
  qes::runq::AdmissionLedger ledger;
  std::uint64_t frames_in = 0, wire_replies = 0;
  std::uint64_t ticks = 0, idle_polls = 0;
  double pace_busy_frac = 0.0;
  double drain_s = 0.0;
  double replan_publish_us = 0.0;
  std::vector<double> waiting;
  double scrape_ms = -1.0;
  Outcome policy;  ///< planner phase metrics and details
};

StepSummary summarize(double rate, const Drive& d, const Schedule& s) {
  StepSummary sum;
  sum.rate = rate;
  sum.sent = d.sent;
  sum.shed = d.shed_count + (d.sent - std::min(d.sent, d.replied));
  const std::size_t n = d.sent;
  // A shed or unanswered request misses every latency limit.
  const double inf = std::numeric_limits<double>::infinity();
  auto latency_ms = [&](std::size_t i) {
    return d.shed[i] || d.replies[i] == 0
               ? inf
               : static_cast<double>(d.latency_ns[i]) * 1e-6;
  };
  auto index_at = [&](double t_s) {
    const auto t = static_cast<std::int64_t>(t_s * 1e9);
    return static_cast<std::size_t>(
        std::lower_bound(s.at_ns.begin(), s.at_ns.begin() + static_cast<std::ptrdiff_t>(n), t) -
        s.at_ns.begin());
  };
  const std::size_t first = index_at(kWarmupS);
  std::vector<double> all, lag, window_p99;
  for (std::size_t i = first; i < n; ++i) {
    all.push_back(latency_ms(i));
    lag.push_back(static_cast<double>(d.lag_ns[i]) * 1e-6);
  }
  // Windows at least half covered by the schedule.
  const double span_s = n > 0 ? static_cast<double>(s.at_ns[n - 1]) * 1e-9 : 0.0;
  for (double t = kWarmupS; t + 0.5 * kWindowS <= span_s; t += kWindowS) {
    const std::size_t lo = index_at(t), hi = index_at(t + kWindowS);
    std::vector<double> w;
    for (std::size_t i = lo; i < hi; ++i) w.push_back(latency_ms(i));
    window_p99.push_back(exact_percentile(w, 0.99).value_or(inf));
  }
  sum.samples = all.size();
  sum.windows = window_p99.size();
  sum.missed_windows = count_missed(window_p99);
  sum.p50_ms = exact_percentile(all, 0.50).value_or(inf);
  sum.p99_ms = window_p99.empty() ? inf : median(window_p99);
  sum.send_lag_p50_ms = exact_percentile(lag, 0.50).value_or(inf);
  sum.send_lag_p99_ms = exact_percentile(lag, 0.99).value_or(inf);
  // Backlog test: thirds of the measured window.
  const std::size_t third = (n - first) / 3;
  auto third_p50 = [&](std::size_t lo) {
    std::vector<double> v(third);
    for (std::size_t i = 0; i < third; ++i) v[i] = latency_ms(lo + i);
    return exact_percentile(v, 0.50).value_or(inf);
  };
  sum.first_p50_ms = third_p50(first);
  sum.last_p50_ms = third_p50(first + 2 * third);
  return sum;
}

struct StepPlan {
  double rate = 0.0;
  double seconds = 0.0;  ///< length of the send schedule
  std::uint64_t seed = 0;
  bool traced = false;
  /// The traced steady step: one span per request and a mid-step
  /// /metrics GET. (Ladder steps get step-level spans only, which keeps
  /// the span file near 10 MB.)
  bool detail = false;
};

Step run_step(const StepPlan& plan, const RunOptions& opts, int connections,
              Outcome& out, SpanLog& spans, std::uint64_t parent) {
  Step st;
  qes::runtime::ServerConfig sc;
  sc.model.cores = kModelCores;
  sc.model.power_budget = 20.0 * kModelCores;
  sc.time_scale = 50.0;
  sc.deadline_ms = 150.0;
  sc.tick_wall_ms = 1.0;
  sc.admission_capacity = 4096;
  sc.listen_port = 0;
  sc.ingress_workers = 2;
  sc.http_port = 0;
  // Traced steps snapshot often enough for an exact waiting-queue p99.
  sc.metrics_interval_ms = plan.traced ? 2.0 : 1000.0;

  const auto requests = static_cast<std::size_t>(plan.rate * plan.seconds);
  const Schedule sched = make_schedule(plan.rate, requests, plan.seed);

  const std::int64_t t_setup = now_ns();
  qes::runtime::Server server(sc);
  server.start();
  if (server.listen_port() <= 0) throw std::runtime_error("server did not listen");
  Driver driver(server.listen_port(), connections);
  const std::int64_t t_ready = now_ns();
  st.setup_s = static_cast<double>(t_ready - t_setup) * 1e-9;
  spans.add("runtime.server_start", spans.new_id(), parent, t_setup, t_ready);

  std::thread scraper;
  if (plan.detail) {
    const double at_s = 0.5 * static_cast<double>(sched.at_ns.back()) * 1e-9;
    scraper = std::thread([&st, &server, &spans, parent, at_s] {
      std::this_thread::sleep_for(std::chrono::duration<double>(at_s));
      const std::int64_t t0 = now_ns();
      std::string body;
      try {
        body = qes::obs::http_get(server.http_port(), "/metrics");
      } catch (const std::exception&) {
        body.clear();
      }
      const std::int64_t t1 = now_ns();
      st.scrape_ms = body.find("qes_energy_joules_total") != std::string::npos
                         ? static_cast<double>(t1 - t0) * 1e-6
                         : -1.0;
      spans.add("obs.scrape", spans.new_id(), parent, t0, t1);
    });
  }

  const double proc0 = process_cpu_s();
  const double steal0 = host_steal_s();
  const int driver_tid = current_tid();
  std::map<int, double> tasks0 = task_cpu_s();
  const Drive d = driver.run(sched, opts.violate ? 1 : 0);
  const double proc1 = process_cpu_s();
  std::map<int, double> tasks1 = task_cpu_s();
  st.steal_frac = (host_steal_s() - steal0) /
                  (d.wall_s * std::max(1u, std::thread::hardware_concurrency()));
  if (scraper.joinable()) scraper.join();
  st.driver_cpu_s = d.cpu_s;

  const std::int64_t t_drain = now_ns();
  st.stats = server.drain_and_stop();
  const std::int64_t t_drained = now_ns();
  st.drain_s = static_cast<double>(t_drained - t_drain) * 1e-9;
  spans.add("runtime.drain_and_stop", spans.new_id(), parent, t_drain,
            t_drained);

  // ---- Correctness: wire == server == ring ledger == attribution. ----
  st.ledger = server.admission_ledger();
  const qes::net::Ingress* ing = server.ingress();
  st.frames_in = ing->frames_in_total();
  st.wire_replies = ing->replies_total();
  const qes::obs::EnergyAttribution att = server.attribution();
  const qes::RunStats& rs = st.stats;
  const std::string at = format("step %.0f req/s: ", plan.rate);
  st.lost = d.sent - std::min(d.sent, d.replied);
  out.check(!d.stalled && !d.decode_error,
            at + "driver saw a well-formed reply stream without stalling");
  out.check(d.sent == requests, at + "every scheduled request was sent");
  out.check(st.lost == 0 && d.duplicates == 0 && d.unknown == 0,
            at + format("exactly one REPLY per SUBMIT (lost %llu, duplicate "
                        "%llu, unknown %llu)",
                        static_cast<unsigned long long>(st.lost),
                        static_cast<unsigned long long>(d.duplicates),
                        static_cast<unsigned long long>(d.unknown)));
  out.check(st.frames_in == d.sent, at + "Ingress frames_in == sent");
  out.check(st.wire_replies == d.sent, at + "Ingress replies == sent");
  out.check(ing->shed_on_wire_total() == d.shed_count,
            at + "Ingress shed == driver shed");
  out.check(server.shed() == d.shed_count, at + "Server::shed() == driver shed");
  out.check(rs.jobs_total == d.sent - d.shed_count,
            at + "RunStats jobs_total == sent - shed");
  out.check(st.ledger.pushed == st.ledger.drained &&
                st.ledger.drained == rs.jobs_total &&
                st.ledger.shed == d.shed_count,
            at + "admission ledger pushed == drained == jobs, shed == shed");
  const double energy_rel = std::abs(att.energy_total() - rs.dynamic_energy) /
                            std::max(1.0, rs.dynamic_energy);
  const double quality_rel = std::abs(att.quality_total() - rs.total_quality) /
                             std::max(1.0, rs.total_quality);
  const double reply_rel = std::abs(d.reply_quality - rs.total_quality) /
                           std::max(1.0, rs.total_quality);
  out.check(energy_rel <= 1e-9 && quality_rel <= 1e-9,
            at + format("attribution == RunStats to 1e-9 (energy %.2e, "
                        "quality %.2e)",
                        energy_rel, quality_rel));
  out.check(reply_rel <= 1e-9,
            at + format("sum of REPLY qualities == RunStats quality to 1e-9 "
                        "(%.2e)",
                        reply_rel));
  out.check(rs.peak_power <= sc.model.power_budget * (1.0 + 1e-9),
            at + "peak power <= H");

  st.summary = summarize(plan.rate, d, sched);
  st.verdict = judge_step(st.summary);

  const double served = static_cast<double>(std::max<std::size_t>(rs.jobs_total, 1));
  st.cpu_us_per_job = (proc1 - proc0 - d.cpu_s) / served * 1e6;
  for (const auto& [tid, cpu1] : tasks1) {
    if (tid == driver_tid) continue;
    const auto it = tasks0.find(tid);
    const double cpu = cpu1 - (it != tasks0.end() ? it->second : 0.0);
    st.max_thread_util = std::max(st.max_thread_util, cpu / d.wall_s);
  }

  if (plan.traced) {
    const std::uint64_t step_span = spans.new_id();
    for (std::size_t i = 0; plan.detail && i < d.sent; ++i) {
      const std::int64_t t0 = d.start_ns + sched.at_ns[i];
      spans.add(d.shed[i] ? "wire.request_shed" : "wire.request",
                spans.new_id(), step_span, t0, t0 + d.latency_ns[i]);
    }
    spans.add("wire.drive", step_span, parent, d.start_ns,
              d.start_ns + static_cast<std::int64_t>(d.wall_s * 1e9));
    st.ticks = server.heartbeat().load();
    st.idle_polls = server.shard_set().fold(qes::runtime::kShardSlotIdlePolls);
    double busy_vms = 0.0;
    for (const qes::runtime::WorkerStats& w : server.worker_stats()) {
      busy_vms += w.busy_virtual_ms;
    }
    st.pace_busy_frac =
        busy_vms / (kModelCores * d.wall_s * 1e3 * sc.time_scale);
    for (const qes::runtime::MetricsSnapshot& snap : server.snapshots()) {
      st.waiting.push_back(static_cast<double>(snap.waiting));
    }
    if (const qes::obs::Histogram* h =
            server.registry().find_histogram("qesd_replan_publish_ms")) {
      st.replan_publish_us =
          h->count() > 0 ? 1e3 * h->sum() / static_cast<double>(h->count()) : 0.0;
    }
    add_policy_metrics(st.policy, server.registry(), "runtime", rs.replans,
                       d.wall_s);
  }
  return st;
}

std::string curve_line(const Step& s) {
  const StepSummary& m = s.summary;
  return format(
      "  %9.0f %8zu %7.3f%% %8.3f %8.3f %8zu %3zu/%-3zu %8.3f %8.3f %7.3f "
      "%7.3f %6.2f%%  %s%s",
      m.rate, m.sent,
      100.0 * static_cast<double>(m.shed) / static_cast<double>(m.sent),
      m.p50_ms, m.p99_ms, m.samples, m.missed_windows, m.windows,
      m.first_p50_ms, m.last_p50_ms, m.send_lag_p50_ms, m.send_lag_p99_ms,
      100.0 * s.steal_frac, s.verdict.pass ? "pass" : "FAIL ",
      s.verdict.why.c_str());
}

}  // namespace

Outcome run_wire_ladder(const RunOptions& opts) {
  Outcome out;
  const int connections = static_cast<int>(std::clamp<unsigned>(
      std::thread::hardware_concurrency(), 1u, 4u));
  SpanLog spans(opts.trace);
  const std::uint64_t root = spans.new_id();
  const std::int64_t t_start = now_ns();
  // Smoke runs keep enough 2 ms snapshots for runtime.waiting_p99.
  const double steady_s = kWarmupS + kWindowS * (opts.smoke ? 8 : kSteadyWindows);
  const double step_s = kWarmupS + kWindowS * (opts.smoke ? 2 : kStepWindows);
  auto step_seed = [&](std::size_t k) { return opts.seed * 1'000'003ULL + k; };

  SpanLog none(false);
  const Step warmup =
      run_step({kSteadyRate, opts.smoke ? kWarmupS : kProcessWarmupS,
                step_seed(0) ^ 0x5eedULL, false, false},
               opts, connections, out, none, 0);

  // Traced runs then hold an untraced steady step: the baseline for
  // obs.trace_overhead.
  double untraced_cpu_us = 0.0;
  std::uint64_t sent = warmup.summary.sent;
  if (opts.trace) {
    const Step plain =
        run_step({kSteadyRate, steady_s, step_seed(0), false, false}, opts,
                 connections, out, none, 0);
    untraced_cpu_us = plain.cpu_us_per_job;
    sent += plain.summary.sent;
  }

  std::vector<Step> steps;
  std::uint64_t lost = 0;
  for (int attempt = 1;; ++attempt) {
    Step st = run_step(
        {kSteadyRate, steady_s, step_seed(0), opts.trace, opts.trace}, opts,
        connections, out, spans, root);
    if (st.verdict.pass || attempt == kSteadyAttempts) {
      steps.push_back(std::move(st));
      break;
    }
    out.note("failed steady step, run again:" + curve_line(st));
    sent += st.summary.sent;
    lost += st.lost;
  }
  // The process high-water mark through the steady step: later steps hold
  // more jobs per server, and where the ladder stops varies.
  const double steady_rss_mb = peak_rss_mb();
  check_steady_step(steps.front().verdict, out);
  for (std::size_t k = 0; k < kLadder.size() && steps.back().verdict.pass; ++k) {
    if (opts.smoke && k >= 1) break;
    steps.push_back(run_step(
        {kLadder[k], step_s, step_seed(k + 1), opts.trace, false}, opts,
        connections, out, spans, root));
  }
  spans.add("wire.ladder", root, 0, t_start, now_ns());

  std::vector<StepSummary> sums;
  std::vector<StepVerdict> verdicts;
  std::vector<double> setups = {warmup.setup_s};
  out.note(format("wire_ladder: %d connections, p99 limit %.1f ms per %.2f s "
                  "window (shed = miss), steady step %.1f s, ladder steps "
                  "%.1f s, warm-up %.1f s",
                  connections, kP99LimitMs, kWindowS, steady_s, step_s,
                  kWarmupS));
  out.note("  rate_rps     sent    shed   p50_ms   p99_ms  samples missed "
           "first_p50 last_p50 lag_p50 lag_p99  steal  verdict");
  for (const Step& s : steps) {
    sums.push_back(s.summary);
    verdicts.push_back(s.verdict);
    setups.push_back(s.setup_s);
    sent += s.summary.sent;
    lost += s.lost;
    out.note(curve_line(s));
  }
  // Printed on every run, not gated: on a host whose hypervisor steals
  // vCPU time in storms, both moved by 2-4x between identical runs.
  const Capacity cap = interpolate_capacity(sums, verdicts);
  const Step& steady = steps.front();
  out.note(format("capacity_rps %.0f req/s%s; steady latency_p99_ms %.3f "
                  "(median of %zu windows, %zu samples)",
                  cap.rps, cap.censored ? " (every step passed)" : "",
                  steady.summary.p99_ms, steady.summary.windows,
                  steady.summary.samples));
  out.attempted = sent;
  out.failed = lost;

  if (!opts.trace) {
    out.add("setup_s", median(setups), "s", setups.size());
    out.add("latency_ms", steady.summary.p50_ms, "ms", steady.summary.samples);
    out.add("cpu_us_per_job", steady.cpu_us_per_job, "us");
    out.add("norm_quality", steady.stats.normalized_quality, "ratio");
    out.add("quality_per_joule",
            steady.stats.total_quality / steady.stats.total_energy(), "1/J");
    out.add("peak_rss_mb", steady_rss_mb, "MB");
    return out;
  }

  // Per-layer figures. The steady step, whose input is fixed, gives the
  // per-job costs and the work counts; the knee (the last sustained
  // step) gives what limits capacity: the busiest thread, shedding and
  // stealing in the rings.
  const Step* knee = &steady;
  for (const Step& s : steps) {
    if (s.verdict.pass) knee = &s;
  }
  std::vector<double> waiting = steady.waiting;
  const std::size_t n_snap = waiting.size();
  const std::optional<double> waiting_p99 = exact_percentile(waiting, 0.99);
  out.check(waiting_p99.has_value(), "enough snapshots for a waiting p99");
  out.check(steady.scrape_ms >= 0.0, "mid-step /metrics scrape succeeded");
  out.add("policy.replans", static_cast<double>(steady.stats.replans), "count");
  out.add("runtime.ticks", static_cast<double>(steady.ticks), "count");
  out.add("runtime.waiting_p99", waiting_p99.value_or(0.0), "jobs", n_snap);
  out.add("runtime.max_thread_util", knee->max_thread_util, "ratio");
  out.add("runtime.pace_busy_frac", steady.pace_busy_frac, "ratio");
  out.add("runtime.idle_polls", static_cast<double>(steady.idle_polls), "count");
  out.add("runq.pushed", static_cast<double>(steady.ledger.pushed), "count");
  out.add("runq.shed", static_cast<double>(knee->ledger.shed), "count");
  out.add("runq.steal_ratio",
          knee->ledger.drained > 0
              ? static_cast<double>(knee->ledger.stolen) /
                    static_cast<double>(knee->ledger.drained)
              : 0.0,
          "ratio");
  out.add("net.frames_in", static_cast<double>(steady.frames_in), "count");
  out.add("net.replies", static_cast<double>(steady.wire_replies), "count");
  for (const Metric& m : steady.policy.metrics) out.metrics.push_back(m);
  for (const Metric& m : steady.policy.details) out.details.push_back(m);
  out.add("core.wakes", static_cast<double>(steady.stats.core_wakes), "count");
  out.add("obs.trace_overhead", steady.cpu_us_per_job / untraced_cpu_us - 1.0,
          "ratio");
  out.detail("runtime.replan_publish_us", steady.replan_publish_us, "us");
  out.detail("runtime.drain_s", steady.drain_s, "s");
  out.detail("driver.send_lag_p99_ms", steady.summary.send_lag_p99_ms, "ms",
             steady.summary.samples);
  out.detail("driver.cpu_s", steady.driver_cpu_s, "s");
  out.detail("obs.scrape_ms", steady.scrape_ms, "ms");
  if (!opts.trace_path.empty()) {
    out.check(spans.write(opts.trace_path), "spans written to " + opts.trace_path);
  }
  return out;
}

}  // namespace perfbench
