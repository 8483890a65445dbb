// Tests for the NIDS NF: detection parity between CPU and DHL paths.

#include <gtest/gtest.h>

#include "dhl/accel/pattern_matching.hpp"
#include "dhl/netio/mempool.hpp"
#include "dhl/netio/pktgen.hpp"
#include "dhl/nf/nids.hpp"

namespace dhl::nf {
namespace {

using netio::Mbuf;
using netio::MbufPool;

struct NidsFixture : public ::testing::Test {
  std::shared_ptr<match::RuleSet> rules = std::make_shared<match::RuleSet>(
      match::RuleSet::builtin_snort_sample());
  std::shared_ptr<const match::AhoCorasick> automaton =
      NidsProcessor::build_automaton(*rules);
  MbufPool pool{"p", 8, 4096, 0};

  Mbuf* attack_pkt(const std::string& attack, std::uint16_t dst_port,
                   std::uint8_t ip_proto = netio::kIpProtoUdp) {
    netio::TrafficConfig cfg;
    cfg.frame_len = 256;
    cfg.payload = netio::PayloadKind::kText;
    cfg.seed = 7;
    netio::FrameFactory factory{cfg};
    Mbuf* m = pool.alloc();
    factory.build(*m);
    // Overwrite the L4 proto/port and embed the attack string.
    std::uint8_t* p = m->data();
    p[netio::kEthernetHeaderLen + 9] = ip_proto;
    // Rewrite checksum after the proto change.
    p[netio::kEthernetHeaderLen + 10] = 0;
    p[netio::kEthernetHeaderLen + 11] = 0;
    const std::uint16_t sum = netio::Ipv4Header::checksum(
        {p + netio::kEthernetHeaderLen, netio::kIpv4HeaderLen});
    netio::store_be16(p + netio::kEthernetHeaderLen + 10, sum);
    netio::store_be16(p + netio::kEthernetHeaderLen + netio::kIpv4HeaderLen + 2,
                      dst_port);
    // Place the attack beyond the largest possible L4 header so it lands in
    // the scanned payload for both UDP and TCP framings.
    const std::size_t payload_off = netio::kEthernetHeaderLen +
                                    netio::kIpv4HeaderLen +
                                    netio::kTcpHeaderLen;
    std::memcpy(p + payload_off + 8, attack.data(), attack.size());
    return m;
  }
};

TEST_F(NidsFixture, CpuPathDetectsAttack) {
  NidsProcessor nids{rules, automaton};
  Mbuf* m = attack_pkt("/etc/passwd", 80, netio::kIpProtoTcp);
  EXPECT_EQ(nids.cpu_process(*m), Verdict::kForward);  // alert, not drop
  EXPECT_EQ(nids.stats().alerts, 1u);
  EXPECT_EQ(nids.stats().pattern_hits, 1u);
  m->release();
}

TEST_F(NidsFixture, PortConstraintGatesRule) {
  NidsProcessor nids{rules, automaton};
  // sid 1001 requires dst port 80/tcp; same content on port 9999 must not fire.
  Mbuf* m = attack_pkt("/etc/passwd", 9999, netio::kIpProtoTcp);
  nids.cpu_process(*m);
  EXPECT_EQ(nids.stats().alerts, 0u);
  EXPECT_EQ(nids.stats().pattern_hits, 1u);  // matched but option-filtered
  m->release();
}

TEST_F(NidsFixture, ProtocolConstraintGatesRule) {
  NidsProcessor nids{rules, automaton};
  Mbuf* m = attack_pkt("/etc/passwd", 80, netio::kIpProtoUdp);  // tcp rule
  nids.cpu_process(*m);
  EXPECT_EQ(nids.stats().alerts, 0u);
  m->release();
}

TEST_F(NidsFixture, IpRulesMatchAnyProtocol) {
  NidsProcessor nids{rules, automaton};
  Mbuf* m = attack_pkt("/bin/sh", 4444, netio::kIpProtoUdp);  // sid 2002: ip any
  nids.cpu_process(*m);
  EXPECT_EQ(nids.stats().alerts, 1u);
  m->release();
}

TEST_F(NidsFixture, CleanTrafficPasses) {
  NidsProcessor nids{rules, automaton};
  netio::TrafficConfig cfg;
  cfg.frame_len = 512;
  cfg.payload = netio::PayloadKind::kText;
  netio::FrameFactory factory{cfg};
  Mbuf* m = pool.alloc();
  for (int i = 0; i < 50; ++i) {
    factory.build(*m);
    EXPECT_EQ(nids.cpu_process(*m), Verdict::kForward);
  }
  EXPECT_EQ(nids.stats().alerts, 0u);
  EXPECT_EQ(nids.stats().pattern_hits, 0u);
  m->release();
}

TEST_F(NidsFixture, DhlPathParityWithCpuPath) {
  NidsProcessor cpu{rules, automaton};
  NidsProcessor dhl{rules, automaton};
  accel::PatternMatchingModule module{automaton};

  netio::TrafficConfig cfg;
  cfg.frame_len = 512;
  cfg.payload = netio::PayloadKind::kTextAttacks;
  cfg.attack_probability = 0.4;
  cfg.attack_strings = {"/etc/passwd", "/bin/sh", "union select", "Nikto"};
  netio::FrameFactory factory{cfg};

  Mbuf* a = pool.alloc();
  for (int i = 0; i < 200; ++i) {
    factory.build(*a);
    // CPU path on a copy.
    std::vector<std::uint8_t> bytes(a->payload().begin(), a->payload().end());
    Mbuf* b = pool.alloc();
    b->assign(bytes);
    const Verdict vc = cpu.cpu_process(*b);
    b->release();

    // DHL path: module scan + option evaluation.
    ASSERT_EQ(dhl.dhl_prep(*a), Verdict::kForward);
    std::vector<std::uint8_t> record(a->payload().begin(), a->payload().end());
    const auto res = module.process(record);
    a->set_accel_result(res.result);
    const Verdict vd = dhl.dhl_post(*a);
    ASSERT_EQ(vc, vd) << "packet " << i;
  }
  a->release();
  EXPECT_EQ(cpu.stats().alerts, dhl.stats().alerts);
  EXPECT_EQ(cpu.stats().drops, dhl.stats().drops);
  EXPECT_EQ(cpu.stats().pattern_hits, dhl.stats().pattern_hits);
  EXPECT_GT(cpu.stats().pattern_hits, 20u);
}

TEST_F(NidsFixture, DropRuleDropsPacket) {
  const auto drop_rules = std::make_shared<match::RuleSet>(match::RuleSet::parse(
      "drop udp any any -> any any (msg:\"kill\"; content:\"FORBIDDEN\"; sid:1;)"));
  const auto drop_automaton = NidsProcessor::build_automaton(*drop_rules);
  NidsProcessor nids{drop_rules, drop_automaton};
  Mbuf* m = attack_pkt("FORBIDDEN", 1234, netio::kIpProtoUdp);
  EXPECT_EQ(nids.cpu_process(*m), Verdict::kDrop);
  EXPECT_EQ(nids.stats().drops, 1u);
  m->release();
}

TEST_F(NidsFixture, MultiContentRuleNeedsAllContents) {
  const auto multi = std::make_shared<match::RuleSet>(match::RuleSet::parse(
      "alert udp any any -> any any (content:\"AAA\"; content:\"BBB\"; sid:1;)"));
  const auto auto2 = NidsProcessor::build_automaton(*multi);
  NidsProcessor nids{multi, auto2};
  Mbuf* m1 = attack_pkt("AAA something", 1, netio::kIpProtoUdp);
  nids.cpu_process(*m1);
  EXPECT_EQ(nids.stats().alerts, 0u);  // only one of two contents
  m1->release();
  Mbuf* m2 = attack_pkt("AAA and BBB", 1, netio::kIpProtoUdp);
  nids.cpu_process(*m2);
  EXPECT_EQ(nids.stats().alerts, 1u);
  m2->release();
}

TEST_F(NidsFixture, PrepDropsRunts) {
  NidsProcessor nids{rules, automaton};
  Mbuf* m = pool.alloc();
  m->assign(std::vector<std::uint8_t>(4, 0));
  EXPECT_EQ(nids.dhl_prep(*m), Verdict::kDrop);
  m->release();
}

TEST_F(NidsFixture, PostCostChargesOptionEvalOnlyOnMatch) {
  sim::TimingParams t;
  const auto cost = nids_dhl_post_cost(t);
  Mbuf* m = pool.alloc();
  m->assign(std::vector<std::uint8_t>(64, 0));
  m->set_accel_result(0);
  const double clean = cost(*m);
  m->set_accel_result(1ULL | (1ULL << 48));  // one match
  EXPECT_GT(cost(*m), clean);
  m->release();
}

}  // namespace
}  // namespace dhl::nf
