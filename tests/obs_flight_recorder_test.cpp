// FlightRecorder: the black-box rings behind --flight-dump. Contract:
// every dump line is valid JSON, rings keep the newest `capacity`
// events per thread in order, concurrent dumps never crash or block
// writers (torn rows are skipped and counted), the async-signal-safe
// path writes the same format as to_jsonl(), and the stall watchdog
// fires exactly once per stall episode. Runs under TSan via `-L obs`.
#include "obs/flight_recorder.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "scenario/json.hpp"

namespace qes::obs {
namespace {

using scenario::Json;

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) out.push_back(line);
  }
  return out;
}

TEST(FlightRecorder, ToJsonlEmitsHeaderAndOrderedEvents) {
  FlightRecorder rec(2, 8);
  rec.record(0, FlightKind::kAdmit, 3, 10);
  rec.record(0, FlightKind::kDrain, 3, 3);
  rec.record(1, FlightKind::kPlanFlip, 1, 42);

  const std::vector<std::string> lines = lines_of(rec.to_jsonl("unit-test"));
  ASSERT_GE(lines.size(), 4u);

  const Json header = Json::parse(lines[0]);
  const Json* h = header.find("flight_recorder");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->string_or("reason", ""), "unit-test");
  EXPECT_DOUBLE_EQ(h->number_or("threads", 0.0), 2.0);
  EXPECT_DOUBLE_EQ(h->number_or("capacity", 0.0), 8.0);

  // Events per thread come oldest-first with ascending seq (0-based
  // event index).
  std::int64_t prev_seq = -1;
  int thread0_events = 0;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const Json e = Json::parse(lines[i]);
    if (e.find("torn") != nullptr) continue;
    if (static_cast<int>(e.number_or("thread", -1.0)) != 0) continue;
    const auto seq = static_cast<std::int64_t>(e.number_or("seq", -1.0));
    EXPECT_GT(seq, prev_seq);
    prev_seq = seq;
    ++thread0_events;
  }
  EXPECT_EQ(thread0_events, 2);

  // Kinds render as their symbolic names.
  EXPECT_NE(rec.to_jsonl("x").find("\"kind\": \"plan_flip\""),
            std::string::npos);
  EXPECT_NE(rec.to_jsonl("x").find("\"kind\": \"admit\""), std::string::npos);
}

TEST(FlightRecorder, RingKeepsNewestCapacityEvents) {
  FlightRecorder rec(1, 4);
  for (std::uint32_t i = 1; i <= 10; ++i) {
    rec.record(0, FlightKind::kTick, i, i);
  }
  const std::vector<std::string> lines = lines_of(rec.to_jsonl("wrap"));
  std::vector<std::uint64_t> seqs;
  for (const std::string& l : lines) {
    const Json e = Json::parse(l);
    if (e.find("seq") != nullptr && e.find("torn") == nullptr) {
      seqs.push_back(static_cast<std::uint64_t>(e.number_or("seq", 0.0)));
    }
  }
  // Capacity 4 and 10 recorded events: indices 6..9 survive.
  ASSERT_EQ(seqs.size(), 4u);
  EXPECT_EQ(seqs.front(), 6u);
  EXPECT_EQ(seqs.back(), 9u);
}

TEST(FlightRecorder, CapacityRoundsUpToPowerOfTwo) {
  FlightRecorder rec(1, 5);
  EXPECT_EQ(rec.capacity(), 8u);
}

TEST(FlightRecorder, OutOfRangeThreadSharesLastRing) {
  FlightRecorder rec(2, 8);
  rec.record(99, FlightKind::kShed, 1, 0);  // clamps to ring 1
  const std::string out = rec.to_jsonl("clamp");
  EXPECT_NE(out.find("\"thread\": 1"), std::string::npos);
  EXPECT_NE(out.find("\"kind\": \"shed\""), std::string::npos);
}

TEST(FlightRecorder, AcquireSlotAssignsWithinRange) {
  FlightRecorder rec(4, 8);
  const std::size_t a = rec.acquire_slot(2);
  const std::size_t b = rec.acquire_slot(2);
  EXPECT_GE(a, 2u);
  EXPECT_LT(a, 4u);
  EXPECT_GE(b, 2u);
  EXPECT_LT(b, 4u);
}

TEST(FlightRecorder, DumpToPathMatchesToJsonlWhenQuiesced) {
  FlightRecorder rec(1, 8);
  rec.record(0, FlightKind::kSteal, 2, 0);
  rec.record(0, FlightKind::kStall, 0, 5);
  const std::string path =
      "flight_recorder_test_dump_" + std::to_string(::getpid()) + ".jsonl";
  ASSERT_TRUE(rec.dump_to_path(path.c_str(), "unit-dump"));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), rec.to_jsonl("unit-dump"));
  std::remove(path.c_str());
}

// Writers hammer their rings while readers render continuously: every
// emitted line must still parse, valid events must carry sane fields,
// and nothing crashes or deadlocks. TSan verifies the memory orders.
TEST(FlightRecorder, ConcurrentDumpsStayParseableUnderLoad) {
  constexpr int kWriters = 3;
  FlightRecorder rec(kWriters, 64);
  std::atomic<bool> done{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&rec, w, &done] {
      std::uint32_t i = 0;
      while (!done.load(std::memory_order_acquire)) {
        ++i;
        rec.record(static_cast<std::size_t>(w), FlightKind::kDrain, i, i);
      }
    });
  }
  for (int round = 0; round < 50; ++round) {
    const std::vector<std::string> lines = lines_of(rec.to_jsonl("stress"));
    ASSERT_FALSE(lines.empty());
    for (const std::string& l : lines) {
      const Json e = Json::parse(l);  // throws on malformed output
      if (e.find("seq") == nullptr) continue;
      EXPECT_GE(e.number_or("thread", -1.0), 0.0);
      EXPECT_LT(e.number_or("thread", -1.0), kWriters);
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : writers) t.join();
}

TEST(StallWatchdog, DumpsOncePerStallEpisodeAndRearms) {
  FlightRecorder rec(1, 8);
  rec.record(0, FlightKind::kTick, 0, 1);
  std::atomic<std::uint64_t> heartbeat{0};
  const std::string path =
      "flight_watchdog_test_" + std::to_string(::getpid()) + ".jsonl";
  StallWatchdog dog(&rec, &heartbeat, /*stall_ms=*/40.0, path);

  // Frozen heartbeat: exactly one dump per episode, however long the
  // stall lasts.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (dog.stalls_detected() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(dog.stalls_detected(), 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_EQ(dog.stalls_detected(), 1u) << "re-dumped within one episode";

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  EXPECT_NE(header.find("watchdog-stall"), std::string::npos);

  // A moving heartbeat re-arms; the next freeze dumps again.
  for (int i = 0; i < 30 && dog.stalls_detected() < 2; ++i) {
    heartbeat.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  while (dog.stalls_detected() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(dog.stalls_detected(), 2u);
  dog.stop();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace qes::obs
