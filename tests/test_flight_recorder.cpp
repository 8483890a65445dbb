// FlightRecorder: ring wrap-around, global ordering, fault-storm trip wire,
// dump-request plumbing and artifact naming (DESIGN.md section 7).

#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "dhl/telemetry/flight_recorder.hpp"

namespace dhl::telemetry {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

TEST(FlightRecorder, RingKeepsOnlyTheNewestEvents) {
  FlightRecorder rec{4};
  for (int i = 0; i < 10; ++i) {
    rec.log(FlightComponent::kPacker, static_cast<Picos>(i * 100),
            FlightEventKind::kBatchFlush, "hf", 0, i);
  }
  EXPECT_EQ(rec.total_logged(), 10u);
  const auto events = rec.recent();
  ASSERT_EQ(events.size(), 4u) << "ring capacity bounds retention";
  // Oldest-first, and exactly the last four.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 6 + i);
    EXPECT_EQ(events[i].b, static_cast<std::int32_t>(6 + i));
  }
}

TEST(FlightRecorder, ComponentsWrapIndependentlyButOrderGlobally) {
  FlightRecorder rec{2};
  rec.log(FlightComponent::kPacker, 10, FlightEventKind::kBatchFlush);
  rec.log(FlightComponent::kDma, 20, FlightEventKind::kDmaRetry);
  rec.log(FlightComponent::kPacker, 30, FlightEventKind::kBatchFlush);
  rec.log(FlightComponent::kControl, 40, FlightEventKind::kHealthTransition);
  rec.log(FlightComponent::kPacker, 50, FlightEventKind::kBatchFlush);
  // Packer ring holds its newest two; dma/control keep theirs.
  const auto events = rec.recent();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GT(events[i].seq, events[i - 1].seq) << "globally seq-ordered";
  }
  // `max_events` keeps the newest suffix.
  const auto newest = rec.recent(2);
  ASSERT_EQ(newest.size(), 2u);
  EXPECT_EQ(newest[1].at, 50u);
}

TEST(FlightRecorder, LongTagsAreTruncatedNotOverflowed) {
  FlightRecorder rec;
  const std::string long_tag(100, 'x');
  rec.log(FlightComponent::kFault, 1, FlightEventKind::kFaultInjected,
          long_tag);
  const auto events = rec.recent();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(std::string(events[0].tag), std::string(23, 'x'));
}

TEST(FlightRecorder, EmptyTagLeavesAnEmptyLabel) {
  FlightRecorder rec{2};
  // Wrap the ring so the slot reused by the untagged event held a label.
  rec.log(FlightComponent::kPacker, 1, FlightEventKind::kBatchFlush, "first");
  rec.log(FlightComponent::kPacker, 2, FlightEventKind::kBatchFlush, "second");
  rec.log(FlightComponent::kPacker, 3, FlightEventKind::kBatchFlush,
          std::string_view{});  // null data(), zero size
  const auto events = rec.recent();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(std::string(events[1].tag), "");
  EXPECT_EQ(events[1].at, 3u);
}

TEST(FlightRecorder, DisabledRecorderDropsEverything) {
  FlightRecorder rec;
  rec.set_enabled(false);
  rec.log(FlightComponent::kPacker, 1, FlightEventKind::kBatchFlush);
  EXPECT_EQ(rec.total_logged(), 0u);
  EXPECT_TRUE(rec.recent().empty());
}

TEST(FlightRecorder, FaultStormTripsAndDumps) {
  FlightRecorder rec;
  const std::string path = ::testing::TempDir() + "storm_dump_test.json";
  std::remove(path.c_str());
  rec.set_auto_dump_path(path);
  rec.set_fault_storm_threshold(3, /*window=*/1000);

  rec.log(FlightComponent::kFault, 0, FlightEventKind::kFaultInjected, "a");
  rec.log(FlightComponent::kFault, 5000, FlightEventKind::kFaultInjected, "b");
  EXPECT_FALSE(rec.storm_tripped()) << "two faults cannot trip a 3-threshold";
  // Third fault 6000 ps after the first: the window of the last three spans
  // 1100 ps > 1000, no trip.
  rec.log(FlightComponent::kFault, 6100, FlightEventKind::kFaultInjected, "c");
  EXPECT_FALSE(rec.storm_tripped());
  // Two more inside 1000 ps of #3: the last three now span <= 1000 ps.
  rec.log(FlightComponent::kFault, 6200, FlightEventKind::kFaultInjected, "d");
  rec.log(FlightComponent::kFault, 6300, FlightEventKind::kFaultInjected, "e");
  EXPECT_TRUE(rec.storm_tripped());
  EXPECT_EQ(rec.dumps_written(), 1u);

  const std::string dump = slurp(path);
  EXPECT_NE(dump.find("\"reason\": \"fault_storm\""), std::string::npos);
  EXPECT_NE(dump.find("\"storm_tripped\": true"), std::string::npos);
  EXPECT_NE(dump.find("fault_injected"), std::string::npos);
  std::remove(path.c_str());
}

TEST(FlightRecorder, StormDumpHasPerWindowCooldown) {
  FlightRecorder rec;
  const std::string path = ::testing::TempDir() + "storm_cooldown_test.json";
  std::remove(path.c_str());
  rec.set_auto_dump_path(path);
  rec.set_fault_storm_threshold(2, /*window=*/1000);
  // Six faults in a tight burst: every pair trips, but the cooldown allows
  // only one dump per window of virtual time.
  for (int i = 0; i < 6; ++i) {
    rec.log(FlightComponent::kFault, static_cast<Picos>(i * 10),
            FlightEventKind::kFaultInjected);
  }
  EXPECT_TRUE(rec.storm_tripped());
  EXPECT_EQ(rec.dumps_written(), 1u);
  // Well past the window: the next storm dumps again, numbered ".1".
  rec.log(FlightComponent::kFault, 50'000, FlightEventKind::kFaultInjected);
  rec.log(FlightComponent::kFault, 50'010, FlightEventKind::kFaultInjected);
  EXPECT_EQ(rec.dumps_written(), 2u);
  const std::string second =
      ::testing::TempDir() + "storm_cooldown_test.1.json";
  EXPECT_FALSE(slurp(second).empty()) << "successive dumps get numbered";
  std::remove(path.c_str());
  std::remove(second.c_str());
}

TEST(FlightRecorder, DumpRequestIsConsumedOnce) {
  FlightRecorder rec;
  const std::string path = ::testing::TempDir() + "request_dump_test.json";
  std::remove(path.c_str());
  rec.set_auto_dump_path(path);
  rec.log(FlightComponent::kPacker, 1, FlightEventKind::kBatchFlush, "hf");

  EXPECT_TRUE(rec.poll_triggers(100).empty()) << "no pending request";
  FlightRecorder::request_dump();
  const std::string written = rec.poll_triggers(200);
  EXPECT_EQ(written, path);
  EXPECT_NE(slurp(path).find("\"reason\": \"dump_requested\""),
            std::string::npos);
  EXPECT_TRUE(rec.poll_triggers(300).empty()) << "request consumed";
  std::remove(path.c_str());
}

#ifdef SIGUSR1
TEST(FlightRecorder, Sigusr1SetsTheDumpRequestFlag) {
  FlightRecorder::consume_dump_request();  // clear any leftover state
  FlightRecorder::install_signal_handler();
  ASSERT_EQ(std::raise(SIGUSR1), 0);
  EXPECT_TRUE(FlightRecorder::consume_dump_request());
  EXPECT_FALSE(FlightRecorder::consume_dump_request());
}
#endif

TEST(FlightRecorder, WriteJsonEscapesTags) {
  FlightRecorder rec;
  rec.log(FlightComponent::kPacker, 1, FlightEventKind::kDrop, "a\"b\\c");
  std::ostringstream os;
  rec.write_json(os, "test", 1);
  const std::string json = os.str();
  EXPECT_NE(json.find("a\\\"b\\\\c"), std::string::npos);
}

}  // namespace
}  // namespace dhl::telemetry
