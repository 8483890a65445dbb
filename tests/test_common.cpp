// Unit tests for dhl_common: units, rng, hexdump.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "dhl/common/check.hpp"
#include "dhl/common/crc32.hpp"
#include "dhl/common/hexdump.hpp"
#include "dhl/common/log.hpp"
#include "dhl/common/rng.hpp"
#include "dhl/common/units.hpp"

namespace dhl {
namespace {

TEST(Units, TimeConversions) {
  EXPECT_EQ(nanoseconds(1), 1'000u);
  EXPECT_EQ(microseconds(1), 1'000'000u);
  EXPECT_EQ(milliseconds(1), 1'000'000'000u);
  EXPECT_EQ(seconds(1), kPicosPerSec);
  EXPECT_DOUBLE_EQ(to_microseconds(microseconds(3.5)), 3.5);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(0.25)), 0.25);
}

TEST(Units, FrequencyCycles) {
  const auto f = Frequency::gigahertz(2.0);
  EXPECT_EQ(f.cycles(2), nanoseconds(1));
  EXPECT_DOUBLE_EQ(f.cycles_in(nanoseconds(1)), 2.0);
  const auto fabric = Frequency::megahertz(250);
  EXPECT_EQ(fabric.cycles(1), nanoseconds(4));
}

TEST(Units, BandwidthTransferTime) {
  const auto bw = Bandwidth::gbps(10);
  // 1250 bytes at 10 Gbps = 1 us.
  EXPECT_EQ(bw.transfer_time(1250), microseconds(1));
  EXPECT_DOUBLE_EQ(Bandwidth::bytes_per_sec(1e9).gbps(), 8.0);
}

TEST(Units, WireBytesAddsFramingOverhead) {
  EXPECT_EQ(wire_bytes(64), 84u);
  EXPECT_EQ(wire_bytes(1500), 1520u);
}

TEST(Rng, DeterministicBySeed) {
  Xoshiro256 a{42}, b{42}, c{43};
  EXPECT_EQ(a(), b());
  Xoshiro256 a2{42};
  EXPECT_NE(a2(), c());
}

TEST(Rng, BoundedStaysInRange) {
  Xoshiro256 rng{7};
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(rng.bounded(17), 17u);
  }
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256 rng{9};
  double sum = 0;
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10'000, 0.5, 0.02);
}

TEST(Rng, FillCoversAllBytes) {
  Xoshiro256 rng{11};
  std::vector<std::uint8_t> buf(4096, 0);
  rng.fill(buf.data(), buf.size());
  std::set<std::uint8_t> seen(buf.begin(), buf.end());
  EXPECT_GT(seen.size(), 200u);  // nearly all byte values should appear
}

TEST(Hexdump, ToHexAndBack) {
  const std::vector<std::uint8_t> data{0xde, 0xad, 0xbe, 0xef, 0x00, 0x7f};
  const std::string hex = to_hex(data);
  EXPECT_EQ(hex, "deadbeef007f");
  EXPECT_EQ(from_hex(hex), data);
  EXPECT_EQ(from_hex("DEADBEEF007F"), data);
}

TEST(Hexdump, FromHexRejectsBadInput) {
  EXPECT_THROW(from_hex("abc"), std::invalid_argument);   // odd length
  EXPECT_THROW(from_hex("zz"), std::invalid_argument);    // non-hex
}

TEST(Hexdump, DumpFormatsRows) {
  std::vector<std::uint8_t> data(20, 0x41);  // 'A'
  const std::string dump = hexdump(data);
  EXPECT_NE(dump.find("41 41"), std::string::npos);
  EXPECT_NE(dump.find("|AAAA"), std::string::npos);
  EXPECT_NE(dump.find("00000010"), std::string::npos);  // second row address
}

TEST(Logger, SinkReceivesStructuredRecords) {
  struct Record {
    LogLevel level;
    std::string component;
    std::string message;
  };
  std::vector<Record> records;
  Logger& log = Logger::instance();
  const LogLevel saved = log.level();
  log.set_level(LogLevel::kInfo);
  log.set_sink([&records](LogLevel level, std::string_view component,
                          std::string_view message) {
    records.push_back({level, std::string(component), std::string(message)});
  });

  DHL_INFO("test", "hello " << 42);
  DHL_DEBUG("test", "filtered: below the level threshold");
  DHL_WARN("other", "warn line");

  log.reset_sink();
  log.set_level(saved);
  DHL_INFO("test", "after reset: goes to stderr, not the sink");

  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].level, LogLevel::kInfo);
  EXPECT_EQ(records[0].component, "test");
  EXPECT_EQ(records[0].message, "hello 42");  // bare message, no prefix
  EXPECT_EQ(records[1].level, LogLevel::kWarn);
  EXPECT_EQ(records[1].component, "other");
}

TEST(Logger, LevelNames) {
  EXPECT_EQ(log_level_name(LogLevel::kTrace), "TRACE");
  EXPECT_EQ(log_level_name(LogLevel::kError), "ERROR");
  EXPECT_EQ(log_level_name(LogLevel::kOff), "OFF");
}

using common::crc32c;

TEST(Crc32c, KnownVectors) {
  // RFC 3720 appendix B.4 test vectors.
  const std::uint8_t digits[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32c(digits), 0xe3069283u);
  const std::vector<std::uint8_t> zeros(32, 0x00);
  EXPECT_EQ(crc32c(zeros), 0x8a9136aau);
  const std::vector<std::uint8_t> ones(32, 0xff);
  EXPECT_EQ(crc32c(ones), 0x62a8ab43u);
  EXPECT_EQ(crc32c({}), 0u);
  // 6145 bytes: 48 of the hardware path's 128-byte fold steps plus a
  // one-byte tail.  Reference from a bitwise CRC-32C in Python.
  std::vector<std::uint8_t> long_buf(6145);
  for (std::size_t i = 0; i < long_buf.size(); ++i) {
    long_buf[i] = static_cast<std::uint8_t>(i * 131 + (i >> 8));
  }
  EXPECT_EQ(crc32c(long_buf), 0x28b8af60u);
}

TEST(Crc32c, SeedChainsAcrossPieces) {
  Xoshiro256 rng{11};
  // Every split of a buffer must give the same checksum as one pass, at
  // every length that exercises the 8/4/1-byte strides of both the
  // hardware and slice-by-8 paths and the hardware path's folds; cuts off
  // the 8-byte grid start a piece's folds unaligned.
  for (const std::size_t len : {1u, 7u, 8u, 9u, 63u, 256u, 1000u, 2500u}) {
    std::vector<std::uint8_t> buf(len);
    rng.fill(buf.data(), buf.size());
    const std::uint32_t whole = crc32c(buf);
    for (const std::size_t cut : {std::size_t{0}, std::size_t{1}, len / 3,
                                  len / 2, ((len * 2) / 3) | 1, len - 3, len}) {
      if (cut > len) continue;
      const std::uint32_t part = crc32c(
          std::span{buf}.subspan(cut), crc32c(std::span{buf}.first(cut)));
      EXPECT_EQ(part, whole) << "len=" << len << " cut=" << cut;
    }
  }
}

TEST(Crc32c, SoftwarePathMatchesDispatchedPath) {
  // crc32c() may dispatch to the carry-less-multiply folds; the portable
  // slice-by-8/byte path must produce identical checksums.
  Xoshiro256 rng{13};
  for (const std::size_t len : {1u, 5u, 64u, 255u, 767u, 768u, 769u, 1535u,
                                2304u, 4096u, 6144u, 6145u}) {
    std::vector<std::uint8_t> buf(len);
    rng.fill(buf.data(), buf.size());
    EXPECT_EQ(~common::detail::crc32c_update_sw(buf, ~0u), crc32c(buf))
        << "len=" << len;
  }
}

TEST(Check, ThrowsLogicErrorWithContext) {
  EXPECT_THROW(DHL_CHECK(1 == 2), std::logic_error);
  try {
    DHL_CHECK_MSG(false, "context " << 42);
    FAIL() << "should have thrown";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("context 42"), std::string::npos);
  }
}

}  // namespace
}  // namespace dhl
