// Unit tests for the traffic generator.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "dhl/netio/headers.hpp"
#include "dhl/netio/mempool.hpp"
#include "dhl/netio/pktgen.hpp"

namespace dhl::netio {
namespace {

TEST(Pktgen, BuildsParsableFramesOfRequestedSize) {
  MbufPool pool{"p", 4, 2048, 0};
  TrafficConfig cfg;
  cfg.frame_len = 128;
  FrameFactory factory{cfg};
  Mbuf* m = pool.alloc();
  const std::uint32_t len = factory.build(*m);
  EXPECT_EQ(len, 128u);
  EXPECT_EQ(m->data_len(), 128u);
  const PacketView v = parse_packet(m->payload());
  ASSERT_TRUE(v.valid);
  EXPECT_EQ(v.ip.protocol, kIpProtoUdp);
  EXPECT_TRUE(Ipv4Header::checksum_ok(
      {m->data() + kEthernetHeaderLen, kIpv4HeaderLen}));
  m->release();
}

TEST(Pktgen, SequenceNumbersIncrease) {
  MbufPool pool{"p", 1, 2048, 0};
  FrameFactory factory{TrafficConfig{}};
  Mbuf* m = pool.alloc();
  for (std::uint64_t i = 0; i < 10; ++i) {
    factory.build(*m);
    EXPECT_EQ(m->seq(), i);
  }
  EXPECT_EQ(factory.frames_built(), 10u);
  m->release();
}

TEST(Pktgen, DeterministicBySeed) {
  MbufPool pool{"p", 2, 2048, 0};
  TrafficConfig cfg;
  cfg.seed = 99;
  FrameFactory a{cfg}, b{cfg};
  Mbuf* ma = pool.alloc();
  Mbuf* mb = pool.alloc();
  for (int i = 0; i < 50; ++i) {
    a.build(*ma);
    b.build(*mb);
    ASSERT_EQ(ma->payload().size(), mb->payload().size());
    ASSERT_TRUE(std::equal(ma->payload().begin(), ma->payload().end(),
                           mb->payload().begin()));
  }
  ma->release();
  mb->release();
}

TEST(Pktgen, FlowsStayInConfiguredRange) {
  MbufPool pool{"p", 1, 2048, 0};
  TrafficConfig cfg;
  cfg.num_flows = 8;
  FrameFactory factory{cfg};
  Mbuf* m = pool.alloc();
  for (int i = 0; i < 500; ++i) {
    factory.build(*m);
    const PacketView v = parse_packet(m->payload());
    ASSERT_TRUE(v.valid);
    ASSERT_GE(v.ip.dst, cfg.dst_ip_base);
    ASSERT_LT(v.ip.dst, cfg.dst_ip_base + 8);
  }
  m->release();
}

TEST(Pktgen, SizeMixApproximatesWeights) {
  MbufPool pool{"p", 1, 2048, 0};
  TrafficConfig cfg;
  cfg.size_mix = {{64, 7}, {570, 4}, {1500, 1}};  // simple IMIX
  FrameFactory factory{cfg};
  Mbuf* m = pool.alloc();
  std::map<std::uint32_t, int> counts;
  for (int i = 0; i < 12'000; ++i) {
    counts[factory.build(*m)]++;
  }
  m->release();
  EXPECT_NEAR(counts[64] / 12000.0, 7.0 / 12, 0.03);
  EXPECT_NEAR(counts[570] / 12000.0, 4.0 / 12, 0.03);
  EXPECT_NEAR(counts[1500] / 12000.0, 1.0 / 12, 0.02);
}

TEST(Pktgen, PeekMatchesBuild) {
  TrafficConfig cfg;
  cfg.size_mix = {{64, 1}, {1500, 1}};
  FrameFactory factory{cfg};
  MbufPool pool{"p", 1, 2048, 0};
  Mbuf* m = pool.alloc();
  for (int i = 0; i < 100; ++i) {
    const std::uint32_t peeked = factory.peek_frame_len();
    ASSERT_EQ(factory.build(*m), peeked);
  }
  m->release();
}

TEST(Pktgen, AttackEmbeddingTracksGroundTruth) {
  MbufPool pool{"p", 1, 2048, 0};
  TrafficConfig cfg;
  cfg.frame_len = 256;
  cfg.payload = PayloadKind::kTextAttacks;
  cfg.attack_probability = 0.25;
  cfg.attack_strings = {"/etc/passwd", "cmd.exe"};
  FrameFactory factory{cfg};
  Mbuf* m = pool.alloc();
  std::uint64_t observed = 0;
  const int kFrames = 4000;
  for (int i = 0; i < kFrames; ++i) {
    factory.build(*m);
    const std::string hay(reinterpret_cast<const char*>(m->data()),
                          m->data_len());
    if (hay.find("/etc/passwd") != std::string::npos ||
        hay.find("cmd.exe") != std::string::npos) {
      ++observed;
    }
  }
  m->release();
  EXPECT_EQ(observed, factory.attack_frames());
  EXPECT_NEAR(static_cast<double>(observed) / kFrames, 0.25, 0.03);
}

TEST(Pktgen, CleanTextPayloadHasNoAttacks) {
  MbufPool pool{"p", 1, 2048, 0};
  TrafficConfig cfg;
  cfg.frame_len = 512;
  cfg.payload = PayloadKind::kText;
  FrameFactory factory{cfg};
  Mbuf* m = pool.alloc();
  for (int i = 0; i < 100; ++i) factory.build(*m);
  EXPECT_EQ(factory.attack_frames(), 0u);
  m->release();
}

TEST(Pktgen, TextPayloadIsFillerFromOnePhase) {
  // A text payload is the filler text read cyclically from one random
  // phase, whatever the payload length, up to the 16 KB limit.
  static constexpr char kFiller[] =
      "the quick brown fox jumps over the lazy dog while packets flow through "
      "the network function chain at line rate without loss ";
  constexpr std::size_t kLen = sizeof(kFiller) - 1;
  constexpr std::uint32_t kHeaders = 42;  // Ethernet + IPv4 + UDP
  MbufPool pool{"p", 1, 17 * 1024, 0};
  TrafficConfig cfg;
  cfg.payload = PayloadKind::kText;
  cfg.size_mix = {{64, 1}, {1500, 1}, {9000, 1}, {16 * 1024 + kHeaders, 1}};
  FrameFactory factory{cfg};
  Mbuf* m = pool.alloc();
  std::vector<bool> phases_seen(kLen, false);
  for (int f = 0; f < 200; ++f) {
    factory.build(*m);
    const PacketView v = parse_packet(m->payload());
    ASSERT_TRUE(v.valid);
    ASSERT_EQ(v.payload_offset, kHeaders);
    const std::uint8_t* payload = m->data() + v.payload_offset;
    const std::size_t n = m->data_len() - v.payload_offset;
    std::size_t phase = kLen;
    for (std::size_t p = 0; p < kLen && phase == kLen; ++p) {
      bool all = true;
      for (std::size_t i = 0; i < n && all; ++i) {
        all = payload[i] == static_cast<std::uint8_t>(kFiller[(p + i) % kLen]);
      }
      if (all) phase = p;
    }
    ASSERT_LT(phase, kLen) << "frame " << f << " payload " << n << " B";
    phases_seen[phase] = true;
  }
  m->release();
  EXPECT_GT(std::count(phases_seen.begin(), phases_seen.end(), true), 50);

  TrafficConfig too_long;
  too_long.payload = PayloadKind::kText;
  too_long.frame_len = 16 * 1024 + kHeaders + 1;
  FrameFactory over{too_long};
  Mbuf* big = pool.alloc();
  EXPECT_THROW(over.build(*big), std::logic_error);
  big->release();
}

TEST(Pktgen, RejectsBadConfig) {
  TrafficConfig tiny;
  tiny.frame_len = 32;
  EXPECT_THROW((FrameFactory{tiny}), std::logic_error);

  TrafficConfig attacks;
  attacks.payload = PayloadKind::kTextAttacks;
  EXPECT_THROW((FrameFactory{attacks}), std::logic_error);  // no strings
}

}  // namespace
}  // namespace dhl::netio
