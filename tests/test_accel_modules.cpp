// Functional tests for the accelerator modules: the FPGA path must produce
// byte-identical results to the CPU path.

#include <gtest/gtest.h>

#include "dhl/accel/catalog.hpp"
#include "dhl/accel/extra_modules.hpp"
#include "dhl/accel/ipsec_crypto.hpp"
#include "dhl/accel/lz77.hpp"
#include "dhl/accel/pattern_matching.hpp"
#include "dhl/accel/regex_classifier.hpp"
#include "dhl/common/hexdump.hpp"
#include "dhl/crypto/md5.hpp"
#include "dhl/match/ruleset.hpp"
#include "dhl/netio/mempool.hpp"
#include "dhl/netio/pktgen.hpp"
#include "dhl/nf/ipsec_gateway.hpp"
#include "dhl/nf/nids.hpp"

namespace dhl::accel {
namespace {

using netio::Mbuf;
using netio::MbufPool;

/// Build a pktgen frame into a standalone byte vector.
std::vector<std::uint8_t> make_frame(std::uint32_t len, std::uint64_t seed,
                                     netio::PayloadKind payload =
                                         netio::PayloadKind::kRandom,
                                     double attack_prob = 0.0) {
  MbufPool pool{"p", 1, 64 * 1024 + 128, 0};
  netio::TrafficConfig cfg;
  cfg.frame_len = len;
  cfg.seed = seed;
  cfg.payload = payload;
  cfg.attack_probability = attack_prob;
  if (payload == netio::PayloadKind::kTextAttacks) {
    cfg.attack_strings = {"/etc/passwd", "cmd.exe", "union select"};
  }
  netio::FrameFactory factory{cfg};
  Mbuf* m = pool.alloc();
  factory.build(*m);
  std::vector<std::uint8_t> out(m->payload().begin(), m->payload().end());
  m->release();
  return out;
}

TEST(IpsecCryptoModule, MatchesCpuEspSealBitExact) {
  const auto sa = nf::test_security_association();
  crypto::Aes256 cipher{sa.key};
  crypto::HmacSha1 hmac{sa.auth_key};

  // The 12-byte ICV of each sealed frame, pinned independently of
  // HmacSha1 (both paths below use it): blessed from the scalar MAC and
  // cross-checked with Python's hmac over the frame's ESP auth region.
  const struct {
    std::uint32_t len;
    const char* icv;
  } kCases[] = {{64, "075a69a320dc9c0a9d93e96a"},
                {128, "25e6378429700231fea37a37"},
                {777, "ae7ca064a3b8533e964e7b19"},
                {1500, "f485f288d269d558c87d2717"}};
  for (const auto& [len, want_icv] : kCases) {
    // Build an encapsulated-but-unencrypted frame.
    MbufPool pool{"p", 1, 4096, 0};
    Mbuf* m = pool.alloc();
    const auto inner = make_frame(len, len);
    m->assign(inner);
    esp_encapsulate(*m, sa, /*seq=*/7);
    std::vector<std::uint8_t> cpu_frame(m->payload().begin(),
                                        m->payload().end());
    std::vector<std::uint8_t> fpga_frame = cpu_frame;
    m->release();

    // CPU path.
    esp_seal(cpu_frame, cipher, hmac, sa.salt);

    // FPGA module path.
    IpsecCryptoModule module;
    module.configure(ipsec_module_config(false, sa));
    const auto res = module.process(fpga_frame);
    EXPECT_EQ(res.result, IpsecCryptoModule::kOk);
    EXPECT_EQ(fpga_frame, cpu_frame) << "len=" << len;
    EXPECT_EQ(to_hex(std::span<const std::uint8_t>{cpu_frame}.last(
                  kEspIcvLen)),
              want_icv)
        << "len=" << len;
  }
}

TEST(IpsecCryptoModule, DecryptModeRoundTrips) {
  const auto sa = nf::test_security_association();
  MbufPool pool{"p", 1, 4096, 0};
  Mbuf* m = pool.alloc();
  const auto inner = make_frame(256, 99);
  m->assign(inner);
  esp_encapsulate(*m, sa, 3);
  std::vector<std::uint8_t> frame(m->payload().begin(), m->payload().end());
  m->release();

  IpsecCryptoModule enc, dec;
  enc.configure(ipsec_module_config(false, sa));
  dec.configure(ipsec_module_config(true, sa));
  EXPECT_EQ(enc.process(frame).result, IpsecCryptoModule::kOk);
  EXPECT_EQ(dec.process(frame).result, IpsecCryptoModule::kOk);
  EXPECT_EQ(esp_extract_inner(frame), inner);
}

TEST(IpsecCryptoModule, DecryptFlagsTamperedFrames) {
  const auto sa = nf::test_security_association();
  MbufPool pool{"p", 1, 4096, 0};
  Mbuf* m = pool.alloc();
  m->assign(make_frame(128, 5));
  esp_encapsulate(*m, sa, 1);
  std::vector<std::uint8_t> frame(m->payload().begin(), m->payload().end());
  m->release();

  IpsecCryptoModule enc, dec;
  enc.configure(ipsec_module_config(false, sa));
  dec.configure(ipsec_module_config(true, sa));
  enc.process(frame);
  frame[60] ^= 0x1;  // flip a ciphertext bit
  EXPECT_EQ(dec.process(frame).result, IpsecCryptoModule::kAuthFail);
}

TEST(IpsecCryptoModule, ErrorsOnMisuse) {
  IpsecCryptoModule module;
  std::vector<std::uint8_t> frame(200, 0);
  EXPECT_EQ(module.process(frame).result, IpsecCryptoModule::kNotConfigured);

  const auto sa = nf::test_security_association();
  module.configure(ipsec_module_config(false, sa));
  std::vector<std::uint8_t> runt(30, 0);
  EXPECT_EQ(module.process(runt).result, IpsecCryptoModule::kMalformed);

  EXPECT_THROW(module.configure(std::vector<std::uint8_t>(5, 0)),
               std::invalid_argument);
  std::vector<std::uint8_t> bad_dir(1 + 32 + 4 + 20, 0);
  bad_dir[0] = 7;
  EXPECT_THROW(module.configure(bad_dir), std::invalid_argument);
}

TEST(IpsecCryptoModule, TableVICharacterization) {
  IpsecCryptoModule module;
  EXPECT_EQ(module.resources().luts, 9'464u);
  EXPECT_EQ(module.resources().brams, 242u);
  EXPECT_NEAR(module.timing().max_throughput.gbps(), 65.27, 0.01);
  EXPECT_EQ(module.timing().delay_cycles, 110u);
}

TEST(PatternMatchingModule, TableVICharacterization) {
  const auto rules = std::make_shared<match::RuleSet>(
      match::RuleSet::builtin_snort_sample());
  PatternMatchingModule module{nf::NidsProcessor::build_automaton(*rules)};
  EXPECT_EQ(module.resources().luts, 6'336u);
  EXPECT_EQ(module.resources().brams, 524u);
  EXPECT_NEAR(module.timing().max_throughput.gbps(), 32.40, 0.01);
  EXPECT_EQ(module.timing().delay_cycles, 55u);
}

TEST(StandardModuleDatabase, ListsExactlyTheModuleLibrary) {
  // The paper's two evaluated functions, the extras it names (md5-auth,
  // compression, regex-classifier), the aes256-ctr half of the fused
  // chains, and loopback.  names() is sorted.
  const auto rules = std::make_shared<match::RuleSet>(
      match::RuleSet::builtin_snort_sample());
  const auto bank = std::make_shared<const match::RegexClassifier>(
      std::vector<std::string>{"a+"});
  const fpga::BitstreamDatabase db = standard_module_database(
      nf::NidsProcessor::build_automaton(*rules), bank);
  const std::vector<std::string> expected{
      "aes256-ctr", "compression",      "ipsec-crypto",    "loopback",
      "md5-auth",   "pattern-matching", "regex-classifier"};
  EXPECT_EQ(db.names(), expected);
}

TEST(PatternMatchingModule, MatchesCpuScan) {
  const auto rules = std::make_shared<match::RuleSet>(
      match::RuleSet::builtin_snort_sample());
  const auto automaton = nf::NidsProcessor::build_automaton(*rules);
  PatternMatchingModule module{automaton};

  std::uint64_t frames_with_hits = 0;
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    auto frame = make_frame(512, seed, netio::PayloadKind::kTextAttacks, 0.5);
    const netio::PacketView view = netio::parse_packet(frame);
    ASSERT_TRUE(view.valid);
    // CPU reference.
    std::vector<match::PatternMatch> hits;
    automaton->find_all(
        {frame.data() + view.payload_offset,
         frame.size() - view.payload_offset},
        hits);
    std::uint64_t ref_bitmap = 0;
    for (const auto& h : hits) ref_bitmap |= 1ULL << h.pattern;

    const auto res = module.process(frame);
    EXPECT_EQ(pattern_result_bitmap(res.result), ref_bitmap) << seed;
    if (ref_bitmap != 0) {
      ++frames_with_hits;
      EXPECT_GT(pattern_result_count(res.result), 0u);
    }
  }
  EXPECT_GT(frames_with_hits, 10u);  // the workload really contains attacks
}

TEST(PatternMatchingModule, CountsDistinctPatterns) {
  const std::vector<std::string> patterns{"abc", "def"};
  auto automaton = std::make_shared<const match::AhoCorasick>(
      match::AhoCorasick::build(patterns));
  PatternMatchingModule module{automaton};
  // Raw (non-IP) payload: the module scans the whole buffer.
  std::vector<std::uint8_t> data{'x', 'a', 'b', 'c', 'd', 'e', 'f', 'a',
                                 'b', 'c'};
  const auto res = module.process(data);
  EXPECT_EQ(pattern_result_count(res.result), 2u);
  EXPECT_EQ(pattern_result_bitmap(res.result), 0b11u);
}

TEST(PatternMatchingModule, ScansOnlyTheL4PayloadOfParsableFrames) {
  // The pattern is the frame's destination MAC, so it occurs only in the
  // Ethernet header: a parsable frame (scanned from its L4 payload) must
  // not match, while a truncated, unparsable copy is scanned whole.
  auto frame = make_frame(128, 1);
  ASSERT_TRUE(netio::parse_packet(frame).valid);
  std::vector<std::uint8_t> raw(frame.begin(), frame.begin() + 10);
  ASSERT_FALSE(netio::parse_packet(raw).valid);
  auto automaton =
      std::make_shared<const match::AhoCorasick>(match::AhoCorasick::build(
          std::vector<std::string>{std::string(frame.begin(),
                                               frame.begin() + 6)}));
  PatternMatchingModule module{automaton};

  const std::vector<std::span<std::uint8_t>> datas{frame, raw};
  std::vector<fpga::ProcessResult> out(datas.size());
  module.process_batch(datas, out);
  EXPECT_EQ(out[0].result, 0u);
  EXPECT_EQ(out[1].result, (1ULL << 48) | 1u);
}

TEST(PatternMatchingModule, RejectsRuntimeReconfiguration) {
  auto automaton = std::make_shared<const match::AhoCorasick>(
      match::AhoCorasick::build(std::vector<std::string>{"x"}));
  PatternMatchingModule module{automaton};
  EXPECT_NO_THROW(module.configure({}));
  const std::vector<std::uint8_t> blob{1, 2, 3};
  EXPECT_THROW(module.configure(blob), std::invalid_argument);
}

TEST(RegexClassifierModule, ClassifiesPayloads) {
  const std::vector<std::string> patterns{
      "GET /[a-z]+\\.php",      // C2 beacon path
      "\\x90\\x90\\x90\\x90+",       // NOP sled
      "(select|SELECT).+(from|FROM)",  // crude SQLi
  };
  auto bank = std::make_shared<const match::RegexClassifier>(patterns);
  RegexClassifierModule module{bank};

  // Build a frame and plant a matching string in the payload.
  auto frame = make_frame(512, 31, netio::PayloadKind::kText);
  const netio::PacketView view = netio::parse_packet(frame);
  const char kBeacon[] = "GET /gate.php HTTP/1.1";
  std::memcpy(frame.data() + view.payload_offset + 10, kBeacon,
              sizeof(kBeacon) - 1);
  const auto res = module.process(frame);
  EXPECT_EQ(pattern_result_bitmap(res.result) & 0x1u, 0x1u);
  EXPECT_GE(pattern_result_count(res.result), 1u);

  // A clean frame matches nothing.
  auto clean = make_frame(512, 32, netio::PayloadKind::kText);
  EXPECT_EQ(module.process(clean).result, 0u);
}

TEST(RegexClassifierModule, RejectsRuntimeReconfiguration) {
  auto bank = std::make_shared<const match::RegexClassifier>(
      std::vector<std::string>{"a+"});
  RegexClassifierModule module{bank};
  EXPECT_NO_THROW(module.configure({}));
  const std::vector<std::uint8_t> blob{1};
  EXPECT_THROW(module.configure(blob), std::invalid_argument);
}

TEST(Md5Module, ResultIsDigestPrefix) {
  Md5Module module;
  auto frame = make_frame(256, 17);
  const netio::PacketView view = netio::parse_packet(frame);
  const auto digest = crypto::Md5::digest(
      {frame.data() + view.payload_offset, frame.size() - view.payload_offset});
  const auto res = module.process(frame);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(static_cast<std::uint8_t>(res.result >> (8 * i)),
              digest[static_cast<std::size_t>(i)]);
  }
}

TEST(Md5Module, ProcessBatchMatchesProcess) {
  // IMIX frames (7:4:1 of 64/570/1500 B) and a record that does not parse
  // as a packet, which the module hashes whole.
  std::vector<std::vector<std::uint8_t>> records;
  for (std::uint64_t i = 0; i < 24; ++i) {
    const std::uint32_t len = i % 12 < 7 ? 64 : i % 12 < 11 ? 570 : 1500;
    records.push_back(make_frame(len, 100 + i));
  }
  records.emplace_back(300, 0);
  const std::vector<std::uint8_t>& raw = records.back();
  ASSERT_FALSE(netio::parse_packet(raw).valid);

  Md5Module module;
  std::vector<std::uint64_t> want;
  for (auto r : records) want.push_back(module.process(r).result);
  const auto raw_digest = crypto::Md5::digest(raw);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(static_cast<std::uint8_t>(want.back() >> (8 * i)),
              raw_digest[static_cast<std::size_t>(i)]);
  }

  const auto before = records;
  std::vector<std::span<std::uint8_t>> datas(records.begin(), records.end());
  std::vector<fpga::ProcessResult> out(records.size());
  module.process_batch(datas, out);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(out[i].result, want[i]) << "record " << i;
    EXPECT_EQ(out[i].new_len, records[i].size());
    EXPECT_TRUE(out[i].data_unmodified);
  }
  EXPECT_EQ(records, before);
}

TEST(CompressionModule, ShrinksCompressibleRecords) {
  CompressionModule module;
  std::vector<std::uint8_t> data(2000, 'A');
  const std::vector<std::uint8_t> original = data;
  const auto res = module.process(data);
  ASSERT_LT(res.new_len, original.size());
  EXPECT_EQ(res.result, original.size());
  const std::vector<std::uint8_t> packed(data.begin(),
                                         data.begin() + res.new_len);
  EXPECT_EQ(lz77_decompress(packed), original);
}

TEST(CompressionModule, LeavesIncompressibleRecords) {
  CompressionModule module;
  auto data = make_frame(512, 23);  // random payload
  const auto before = data;
  const auto res = module.process(data);
  EXPECT_EQ(res.new_len, before.size());
  EXPECT_EQ(res.result, CompressionModule::kIncompressible);
  EXPECT_EQ(data, before);
}

}  // namespace
}  // namespace dhl::accel
