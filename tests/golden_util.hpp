// Shared plumbing for the bitwise golden tests (sim_engine_golden_test,
// cluster_lockstep_golden_test): IEEE-754 bit-pattern rows, FNV-1a
// digests, every RunStats field by name, and the dump-or-check routine
// over a golden table file.
//
// A golden file holds one line per pinned value:
//   <case> <field> <hex> <decimal>
// where <hex> is the value's IEEE-754 bit pattern (or a digest) and
// <decimal> is informational only (a %.17g rendering, or an entry count
// for a digest). With QES_GOLDEN_DUMP set, check_golden_table() prints
// the table instead of checking it.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/metrics.hpp"

namespace qes::test {

/// FNV-1a over 64-bit words, fed byte by byte (little-endian order).
struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int k = 0; k < 8; ++k) {
      h ^= (v >> (8 * k)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  void add_bits(double v) { add(std::bit_cast<std::uint64_t>(v)); }
};

inline std::string hex64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

inline std::string hex_bits(double v) {
  return hex64(std::bit_cast<std::uint64_t>(v));
}

/// One golden line (see the file comment).
struct GoldenRow {
  std::string case_name;
  std::string field;
  std::string hex;
  std::string decimal;
};

/// A double pinned by its bit pattern.
inline GoldenRow bits_row(const std::string& case_name,
                          const std::string& field, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return {case_name, field, hex_bits(v), buf};
}

/// A digest pinned with the number of entries it covers.
inline GoldenRow digest_row(const std::string& case_name,
                            const std::string& field, std::uint64_t digest,
                            std::size_t entries) {
  return {case_name, field, hex64(digest), std::to_string(entries)};
}

/// Every RunStats field as a named double (integers convert exactly).
inline std::vector<std::pair<std::string, double>> run_stats_fields(
    const RunStats& s) {
  return {
      {"total_quality", s.total_quality},
      {"max_quality", s.max_quality},
      {"normalized_quality", s.normalized_quality},
      {"dynamic_energy", s.dynamic_energy},
      {"static_energy", s.static_energy},
      {"peak_power", s.peak_power},
      {"end_time", s.end_time},
      {"jobs_total", static_cast<double>(s.jobs_total)},
      {"jobs_satisfied", static_cast<double>(s.jobs_satisfied)},
      {"jobs_partial", static_cast<double>(s.jobs_partial)},
      {"jobs_zero", static_cast<double>(s.jobs_zero)},
      {"jobs_discarded_rigid", static_cast<double>(s.jobs_discarded_rigid)},
      {"mean_latency", s.mean_latency},
      {"p50_latency", s.p50_latency},
      {"p95_latency", s.p95_latency},
      {"p99_latency", s.p99_latency},
      {"replans", static_cast<double>(s.replans)},
      {"wake_energy", s.wake_energy},
      {"core_wakes", static_cast<double>(s.core_wakes)},
      {"active_ms", s.active_ms},
      {"active_idle_ms", s.active_idle_ms},
      {"sleep_ms", s.sleep_ms},
  };
}

/// Dump mode (QES_GOLDEN_DUMP set): prints `rows` as the golden table
/// and skips the test. Otherwise every row must match its line in the
/// file at `path`, and every line of the file must be some row's — a
/// case dropped from a test must be dropped from its file too.
inline void check_golden_table(const char* path,
                               const std::vector<GoldenRow>& rows) {
  if (std::getenv("QES_GOLDEN_DUMP") != nullptr) {
    for (const GoldenRow& r : rows) {
      std::printf("%s %s %s %s\n", r.case_name.c_str(), r.field.c_str(),
                  r.hex.c_str(), r.decimal.c_str());
    }
    GTEST_SKIP() << "dump mode: golden table printed to stdout";
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "golden file missing: " << path;
  std::map<std::string, std::string> golden;  // "case field" -> hex
  std::string case_name, field, hex, decimal;
  while (in >> case_name >> field >> hex >> decimal) {
    golden[case_name + " " + field] = hex;
  }
  ASSERT_FALSE(golden.empty());

  std::size_t checked = 0;
  for (const GoldenRow& r : rows) {
    const auto it = golden.find(r.case_name + " " + r.field);
    ASSERT_NE(it, golden.end())
        << "golden file lacks " << r.case_name << " " << r.field
        << " (regenerate with QES_GOLDEN_DUMP=1)";
    EXPECT_EQ(it->second, r.hex)
        << r.case_name << "." << r.field << " drifted: golden " << it->second
        << ", got " << r.hex << " (" << r.decimal << ")";
    ++checked;
  }
  EXPECT_EQ(checked, golden.size());
}

}  // namespace qes::test
