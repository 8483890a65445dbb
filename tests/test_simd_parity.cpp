// Bit-parity suite for the runtime-dispatched CPU vector kernels
// (common/simd.hpp, DESIGN.md section 3.5): for every kernel, the output
// under each host-supported ISA tier must be byte-identical to the scalar
// reference, across fuzzed lengths and alignments including sub-16-byte
// buffers and page-crossing placements.  The DHL_SIMD=scalar CI leg runs
// this same binary with the cap pinned; set_cap() overrides the environment
// per test, so each tier is still exercised wherever the host supports it.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "dhl/accel/catalog.hpp"
#include "dhl/accel/pattern_matching.hpp"
#include "dhl/common/crc32.hpp"
#include "dhl/common/rng.hpp"
#include "dhl/common/simd.hpp"
#include "dhl/crypto/aes.hpp"
#include "dhl/crypto/md5.hpp"
#include "dhl/crypto/sha1.hpp"
#include "dhl/fpga/device.hpp"
#include "dhl/match/aho_corasick.hpp"
#include "dhl/runtime/runtime.hpp"
#include "dhl/sim/simulator.hpp"

namespace dhl {
namespace {

namespace simd = common::simd;

/// Restore the ambient cap (environment or a prior set_cap) on scope exit,
/// so one test's tier sweep cannot leak into the next.
struct CapGuard {
  simd::Isa prev = simd::cap();
  ~CapGuard() { simd::set_cap(prev); }
};

/// Every tier this host can execute, scalar first.  Tiers the host lacks
/// are skipped (the dispatch would fall back to scalar anyway, so testing
/// them adds nothing).
std::vector<simd::Isa> host_tiers() {
  std::vector<simd::Isa> tiers;
  for (int t = 0; t <= static_cast<int>(simd::kMaxIsa); ++t) {
    const auto isa = static_cast<simd::Isa>(t);
    if (simd::host_supports(isa)) tiers.push_back(isa);
  }
  return tiers;
}

/// Page-size-aligned scratch whose tail can be positioned to straddle the
/// boundary between its two pages (vector kernels with wide unaligned loads
/// are most likely to over-read exactly there).
struct TwoPages {
  static constexpr std::size_t kPage = 4096;
  std::uint8_t* base = nullptr;
  TwoPages() {
    void* p = nullptr;
    if (posix_memalign(&p, kPage, 2 * kPage) != 0) std::abort();
    base = static_cast<std::uint8_t*>(p);
    std::memset(base, 0xEE, 2 * kPage);
  }
  ~TwoPages() { std::free(base); }
  /// Pointer `back` bytes before the page boundary.
  std::uint8_t* straddle(std::size_t back) { return base + kPage - back; }
};

TEST(SimdDispatch, ParseIsaRoundTrip) {
  simd::Isa out = simd::kMaxIsa;
  EXPECT_TRUE(simd::parse_isa("scalar", out));
  EXPECT_EQ(out, simd::Isa::kScalar);
  EXPECT_TRUE(simd::parse_isa("sse42", out));
  EXPECT_EQ(out, simd::Isa::kSse42);
  EXPECT_TRUE(simd::parse_isa("aesni", out));
  EXPECT_EQ(out, simd::Isa::kAesni);
  EXPECT_TRUE(simd::parse_isa("avx2", out));
  EXPECT_EQ(out, simd::Isa::kAvx2);
  out = simd::Isa::kSse42;
  EXPECT_FALSE(simd::parse_isa("avx512", out));
  EXPECT_EQ(out, simd::Isa::kSse42);  // untouched on failure
  for (const auto isa : host_tiers()) {
    simd::Isa parsed = simd::Isa::kScalar;
    EXPECT_TRUE(simd::parse_isa(simd::to_string(isa), parsed));
    EXPECT_EQ(parsed, isa);
  }
}

TEST(SimdDispatch, CapGatesEnabled) {
  CapGuard guard;
  simd::set_cap(simd::Isa::kScalar);
  EXPECT_TRUE(simd::enabled(simd::Isa::kScalar));
  EXPECT_FALSE(simd::enabled(simd::Isa::kSse42));
  EXPECT_FALSE(simd::enabled(simd::Isa::kAvx2));
  simd::set_cap(simd::kMaxIsa);
  for (const auto isa : host_tiers()) EXPECT_TRUE(simd::enabled(isa));
}

TEST(SimdDispatch, KernelReportTracksCap) {
  CapGuard guard;
  const std::vector<const char*> expected{
      "crc32c", "aes256_ctr", "ac_multilane", "batch_copy", "sha1", "md5"};
  simd::set_cap(simd::Isa::kScalar);
  auto report = simd::kernel_report();
  ASSERT_EQ(report.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_STREQ(report[i].name, expected[i]);
    EXPECT_EQ(report[i].selected, simd::Isa::kScalar)
        << report[i].name << " must report scalar under a scalar cap";
  }
  simd::set_cap(simd::kMaxIsa);
  report = simd::kernel_report();
  for (const auto& k : report) {
    // PCLMULQDQ and SHA-NI are off the tier ladder: the crc32c and sha1
    // rows also need their probes.
    const bool probe_ok =
        (std::strcmp(k.name, "sha1") != 0 || simd::host_has_sha()) &&
        (std::strcmp(k.name, "crc32c") != 0 || simd::host_has_pclmul());
    const simd::Isa want = simd::host_supports(k.tier) && probe_ok
                               ? k.tier
                               : simd::Isa::kScalar;
    EXPECT_EQ(k.selected, want) << k.name;
  }
}

/// The runtime exports the registry as a telemetry gauge at construction:
/// one dhl.simd.kernel_isa series per kernel, value = selected tier.
TEST(SimdDispatch, RuntimeExportsKernelIsaGauge) {
  CapGuard guard;
  simd::set_cap(simd::kMaxIsa);
  sim::Simulator sim;
  fpga::FpgaDeviceConfig fc;
  fpga::FpgaDevice fpga{sim, fc};
  runtime::RuntimeConfig cfg;
  runtime::DhlRuntime rt{sim, cfg, accel::standard_module_database(nullptr),
                         std::vector<fpga::FpgaDevice*>{&fpga}};
  const auto snap = rt.telemetry().metrics.snapshot();
  for (const auto& k : simd::kernel_report()) {
    const auto* s = snap.find("dhl.simd.kernel_isa", {{"kernel", k.name}});
    ASSERT_NE(s, nullptr) << "no gauge for kernel " << k.name;
    EXPECT_EQ(s->value, static_cast<double>(k.selected)) << k.name;
    std::string isa_label;
    for (const auto& [lk, lv] : s->labels) {
      if (lk == "isa") isa_label = lv;
    }
    EXPECT_EQ(isa_label, simd::to_string(k.selected)) << k.name;
  }
}

// --- AES-256-CTR -------------------------------------------------------------

TEST(SimdParity, Aes256CtrAllTiersLengthsOffsets) {
  CapGuard guard;
  Xoshiro256 rng{0xAE51234ull};
  std::array<std::uint8_t, 32> key{};
  rng.fill(key.data(), key.size());
  const crypto::Aes256 cipher{key};
  std::array<std::uint8_t, 16> ctr{};
  rng.fill(ctr.data(), ctr.size());
  // Lengths cover: empty, sub-block, one block +-1, one pipeline group
  // (8 blocks = 128), ragged multi-group, an MTU, and a jumbo batch.
  const std::size_t lengths[] = {0,   1,   7,    15,   16,   17,  64,
                                 127, 128, 129,  255,  256,  1000,
                                 1500, 6144};
  const std::size_t offsets[] = {0, 1, 8, 15};
  for (const std::size_t len : lengths) {
    for (const std::size_t off : offsets) {
      std::vector<std::uint8_t> backing(len + 32);
      rng.fill(backing.data(), backing.size());
      const std::span<const std::uint8_t> in{backing.data() + off, len};

      simd::set_cap(simd::Isa::kScalar);
      std::vector<std::uint8_t> want(len);
      crypto::aes256_ctr(cipher, ctr, in, want);

      for (const auto isa : host_tiers()) {
        simd::set_cap(isa);
        std::vector<std::uint8_t> got(len, 0xAA);
        crypto::aes256_ctr(cipher, ctr, in, got);
        EXPECT_EQ(got, want) << "len=" << len << " off=" << off << " isa="
                             << simd::to_string(isa);
      }
    }
  }
}

TEST(SimdParity, Aes256CtrCounterCarryAllTiers) {
  // Counters whose low half wraps inside the first 8-block group (ff..ff),
  // between groups (ff..f0), and the 128-bit wrap of all ones: the vector
  // kernel's lo -> hi carry must walk the scalar byte increment's sequence.
  // Every length 0..600 reaches each group shape and partial last block.
  CapGuard guard;
  Xoshiro256 rng{0xCA5511ull};
  std::array<std::uint8_t, 32> key{};
  rng.fill(key.data(), key.size());
  const crypto::Aes256 cipher{key};
  std::vector<std::array<std::uint8_t, 16>> counters(3);
  for (auto& c : counters) c.fill(0xff);
  rng.fill(counters[0].data(), 8);
  rng.fill(counters[1].data(), 8);
  counters[1][15] = 0xf0;
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 600; ++n) lengths.push_back(n);
  lengths.push_back(1500);
  lengths.push_back(6144);
  std::vector<std::uint8_t> in(6144);
  rng.fill(in.data(), in.size());
  for (const auto& ctr : counters) {
    for (const std::size_t len : lengths) {
      const std::span<const std::uint8_t> src{in.data(), len};
      simd::set_cap(simd::Isa::kScalar);
      std::vector<std::uint8_t> want(len);
      crypto::aes256_ctr(cipher, ctr, src, want);
      for (const auto isa : host_tiers()) {
        simd::set_cap(isa);
        std::vector<std::uint8_t> got(len, 0xAA);
        crypto::aes256_ctr(cipher, ctr, src, got);
        EXPECT_EQ(got, want) << "out of place len=" << len << " ctr[15]="
                             << int{ctr[15]} << " isa=" << simd::to_string(isa);
        std::vector<std::uint8_t> inplace(src.begin(), src.end());
        crypto::aes256_ctr(cipher, ctr, inplace, inplace);
        EXPECT_EQ(inplace, want) << "in place len=" << len << " ctr[15]="
                                 << int{ctr[15]}
                                 << " isa=" << simd::to_string(isa);
      }
    }
  }
}

TEST(SimdParity, Aes256CtrCrossPage) {
  CapGuard guard;
  Xoshiro256 rng{0xAE5CAFEull};
  std::array<std::uint8_t, 32> key{};
  rng.fill(key.data(), key.size());
  const crypto::Aes256 cipher{key};
  const std::array<std::uint8_t, 16> ctr{};
  TwoPages in_pages, out_pages;
  // Buffers starting shortly before the page boundary, ending after it.
  for (const std::size_t back : {1ul, 5ul, 16ul, 100ul}) {
    const std::size_t len = back + 200;  // always crosses
    std::uint8_t* in = in_pages.straddle(back);
    std::uint8_t* out = out_pages.straddle(back);
    rng.fill(in, len);

    simd::set_cap(simd::Isa::kScalar);
    std::vector<std::uint8_t> want(len);
    crypto::aes256_ctr(cipher, ctr, {in, len}, want);

    for (const auto isa : host_tiers()) {
      simd::set_cap(isa);
      std::memset(out, 0, len);
      crypto::aes256_ctr(cipher, ctr, {in, len}, {out, len});
      EXPECT_EQ(std::memcmp(out, want.data(), len), 0)
          << "back=" << back << " isa=" << simd::to_string(isa);
    }
  }
}

TEST(SimdParity, Aes256CtrIsItsOwnInverseUnderEveryTier) {
  CapGuard guard;
  Xoshiro256 rng{0xDEC0DEull};
  std::array<std::uint8_t, 32> key{};
  rng.fill(key.data(), key.size());
  const crypto::Aes256 cipher{key};
  std::array<std::uint8_t, 16> ctr{};
  rng.fill(ctr.data(), ctr.size());
  std::vector<std::uint8_t> plain(777);
  rng.fill(plain.data(), plain.size());
  for (const auto isa : host_tiers()) {
    simd::set_cap(isa);
    std::vector<std::uint8_t> enc(plain.size()), dec(plain.size());
    crypto::aes256_ctr(cipher, ctr, plain, enc);
    EXPECT_NE(enc, plain);
    crypto::aes256_ctr(cipher, ctr, enc, dec);
    EXPECT_EQ(dec, plain) << simd::to_string(isa);
  }
}

TEST(SimdParity, AesEncryptDecryptBlockAllTiers) {
  CapGuard guard;
  Xoshiro256 rng{0xB10CC5ull};
  std::array<std::uint8_t, 32> key{};
  rng.fill(key.data(), key.size());
  const crypto::Aes256 cipher{key};
  std::uint8_t in[16], want[16];
  rng.fill(in, sizeof(in));
  simd::set_cap(simd::Isa::kScalar);
  cipher.encrypt_block(in, want);
  for (const auto isa : host_tiers()) {
    simd::set_cap(isa);
    std::uint8_t out[16] = {0}, back[16] = {0};
    cipher.encrypt_block(in, out);
    EXPECT_EQ(std::memcmp(out, want, 16), 0) << simd::to_string(isa);
    cipher.decrypt_block(out, back);
    EXPECT_EQ(std::memcmp(back, in, 16), 0) << simd::to_string(isa);
  }
}

// --- SHA-1 block kernel ------------------------------------------------------

using Sha1Digest = std::array<std::uint8_t, crypto::Sha1::kDigestBytes>;

/// Sha1 fed in two update() calls split at `split`: the first call leaves a
/// partial block buffered, the second completes it and hands the remaining
/// whole blocks to the kernel straight from `data`.
Sha1Digest split_digest(std::span<const std::uint8_t> data,
                        std::size_t split) {
  crypto::Sha1 s;
  s.update(data.first(split));
  s.update(data.subspan(split));
  Sha1Digest d{};
  s.finish(d);
  return d;
}

TEST(SimdParity, Sha1HmacAndUpdateAllTiers) {
  CapGuard guard;
  Xoshiro256 rng{0x5A1F00Dull};
  // Every padding shape up to two blocks past the ipad block, then random
  // lengths up to 2000 B.
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 130; ++n) lengths.push_back(n);
  for (int i = 0; i < 40; ++i) lengths.push_back(rng.bounded(2001));
  // Keys below, at and past the block size (65 and 80 are hashed first).
  for (const std::size_t key_len : {0ul, 20ul, 64ul, 65ul, 80ul}) {
    std::vector<std::uint8_t> key(key_len);
    rng.fill(key.data(), key.size());
    for (const std::size_t len : lengths) {
      for (const std::size_t off : {0ul, 1ul, 7ul, 15ul}) {
        std::vector<std::uint8_t> backing(len + 16);
        rng.fill(backing.data(), backing.size());
        const std::span<const std::uint8_t> data{backing.data() + off, len};
        const std::size_t split = rng.bounded(len + 1);

        simd::set_cap(simd::Isa::kScalar);
        const auto want_mac = crypto::HmacSha1{key}.mac(data);
        const Sha1Digest want_digest = split_digest(data, split);

        for (const auto isa : host_tiers()) {
          simd::set_cap(isa);
          EXPECT_EQ(crypto::HmacSha1{key}.mac(data), want_mac)
              << "key=" << key_len << " len=" << len << " off=" << off
              << " isa=" << simd::to_string(isa);
          EXPECT_EQ(split_digest(data, split), want_digest)
              << "len=" << len << " off=" << off << " split=" << split
              << " isa=" << simd::to_string(isa);
        }
      }
    }
  }
}

TEST(SimdParity, Sha1CrossPage) {
  CapGuard guard;
  Xoshiro256 rng{0x5A1FACEull};
  std::vector<std::uint8_t> key(20);
  rng.fill(key.data(), key.size());
  TwoPages pages;
  for (const std::size_t back : {1ul, 15ul, 64ul, 100ul}) {
    const std::size_t len = back + 200;  // always crosses
    std::uint8_t* p = pages.straddle(back);
    rng.fill(p, len);
    const std::span<const std::uint8_t> data{p, len};

    simd::set_cap(simd::Isa::kScalar);
    const auto want_mac = crypto::HmacSha1{key}.mac(data);
    const Sha1Digest want_digest = crypto::Sha1::digest(data);

    for (const auto isa : host_tiers()) {
      simd::set_cap(isa);
      EXPECT_EQ(crypto::HmacSha1{key}.mac(data), want_mac)
          << "back=" << back << " isa=" << simd::to_string(isa);
      EXPECT_EQ(crypto::Sha1::digest(data), want_digest)
          << "back=" << back << " isa=" << simd::to_string(isa);
    }
  }
}

// --- MD5 multi-buffer kernel -------------------------------------------------

/// digest_many over `msgs` must give Md5::digest of each message.
void expect_md5_many_matches(
    std::span<const std::span<const std::uint8_t>> msgs,
    const std::string& what) {
  std::vector<crypto::Md5::Digest> got(msgs.size());
  crypto::Md5::digest_many(msgs, got);
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    EXPECT_EQ(got[i], crypto::Md5::digest(msgs[i]))
        << what << " msg " << i << " len=" << msgs[i].size()
        << " isa=" << simd::to_string(simd::cap());
  }
}

TEST(SimdParity, Md5DigestManyAllTiers) {
  CapGuard guard;
  Xoshiro256 rng{0x3D5AB1Eull};
  // Every padding shape (lengths 0..200), random lengths up to 2000, the
  // one/two-tail-block edges in one run, and one 23-block record among
  // 1-block ones (longest-first order must not leave it to run alone).
  std::vector<std::size_t> every;
  for (std::size_t n = 0; n <= 200; ++n) every.push_back(n);
  std::vector<std::size_t> random;
  for (int i = 0; i < 40; ++i) random.push_back(rng.bounded(2001));
  const std::vector<std::size_t> edges{55, 56, 63, 64, 119, 120, 0, 1};
  const std::vector<std::size_t> one_long{22, 22, 22, 1458, 22, 22, 22,
                                          22, 22, 22, 22, 22};

  for (const std::size_t off : {0ul, 1ul, 7ul}) {
    std::vector<std::vector<std::uint8_t>> backing;
    auto make = [&](const std::vector<std::size_t>& lens) {
      std::vector<std::span<const std::uint8_t>> msgs;
      for (const std::size_t len : lens) {
        backing.emplace_back(len + off);
        rng.fill(backing.back().data(), backing.back().size());
        msgs.emplace_back(backing.back().data() + off, len);
      }
      return msgs;
    };
    const auto all = make(every);
    const auto rnd = make(random);
    const auto edge = make(edges);
    const auto lng = make(one_long);

    for (const auto isa : host_tiers()) {
      simd::set_cap(isa);
      const std::string at = "off=" + std::to_string(off);
      // 201 messages: more than one fixed-size lane session.
      expect_md5_many_matches(all, at + " every-length");
      expect_md5_many_matches(rnd, at + " random");
      for (const std::size_t n : {1ul, 2ul, 7ul, 8ul, 9ul, 16ul, 17ul}) {
        expect_md5_many_matches({rnd.data(), n},
                                at + " run=" + std::to_string(n));
      }
      expect_md5_many_matches({all.data() + 60, 130}, at + " run=130");
      expect_md5_many_matches(edge, at + " padding-edges");
      expect_md5_many_matches(lng, at + " one-long");
    }
  }
}

// --- Aho-Corasick multi-lane stepper -----------------------------------------

std::vector<std::string> fuzz_patterns(Xoshiro256& rng, std::size_t n) {
  std::vector<std::string> patterns;
  for (std::size_t i = 0; i < n; ++i) {
    std::string p;
    const std::size_t len = 1 + rng.bounded(12);
    for (std::size_t j = 0; j < len; ++j) {
      // Small alphabet: dense overlaps, deep failure links.
      p.push_back(static_cast<char>('a' + rng.bounded(4)));
    }
    patterns.push_back(std::move(p));
  }
  return patterns;
}

TEST(SimdParity, AhoCorasickMultiLaneMatchesSingleLane) {
  CapGuard guard;
  Xoshiro256 rng{0xAC0FACEull};
  for (const bool nocase : {false, true}) {
    for (const bool compact : {true, false}) {
      const auto patterns = fuzz_patterns(rng, 24);
      const match::AhoCorasick ac =
          match::AhoCorasick::build(patterns, nocase, compact);
      EXPECT_EQ(ac.compact_table(), compact);

      // Lane counts from degenerate (0, 1) through partial groups to
      // several times kLanes; text lengths fuzzed including empty and
      // sub-16-byte, from the same small alphabet plus case flips.
      for (const std::size_t ntexts : {0ul, 1ul, 2ul, 3ul, 7ul, 8ul, 9ul,
                                       20ul, 33ul}) {
        std::vector<std::vector<std::uint8_t>> texts(ntexts);
        for (auto& t : texts) {
          const std::size_t len = rng.bounded(200);
          t.resize(len);
          for (auto& b : t) {
            b = static_cast<std::uint8_t>(
                (rng.bounded(2) ? 'a' : 'A') + rng.bounded(4));
          }
        }
        std::vector<std::span<const std::uint8_t>> spans(texts.begin(),
                                                         texts.end());
        std::vector<std::vector<match::PatternMatch>> multi(ntexts);
        const std::size_t total = ac.find_all_multi(spans, multi);

        std::size_t want_total = 0;
        for (std::size_t i = 0; i < ntexts; ++i) {
          std::vector<match::PatternMatch> single;
          ac.find_all(spans[i], single);
          want_total += single.size();
          ASSERT_EQ(multi[i].size(), single.size())
              << "text " << i << " nocase=" << nocase
              << " compact=" << compact;
          for (std::size_t k = 0; k < single.size(); ++k) {
            EXPECT_EQ(multi[i][k].pattern, single[k].pattern);
            EXPECT_EQ(multi[i][k].end_offset, single[k].end_offset);
          }
        }
        EXPECT_EQ(total, want_total);
      }
    }
  }
}

TEST(SimdParity, AhoCorasickMultiLaneAllTiers) {
  CapGuard guard;
  Xoshiro256 rng{0xAC17AB5ull};
  const auto patterns = fuzz_patterns(rng, 32);
  const match::AhoCorasick ac =
      match::AhoCorasick::build(patterns, /*case_insensitive=*/true);
  constexpr std::size_t kLanes = match::AhoCorasick::kLanes;
  std::vector<std::vector<std::uint8_t>> texts(kLanes + 3);
  for (auto& t : texts) {
    t.resize(1 + rng.bounded(500));
    for (auto& b : t) {
      b = static_cast<std::uint8_t>((rng.bounded(2) ? 'a' : 'A') +
                                    rng.bounded(4));
    }
  }
  std::vector<std::span<const std::uint8_t>> spans(texts.begin(),
                                                   texts.end());

  simd::set_cap(simd::Isa::kScalar);
  std::vector<std::vector<match::PatternMatch>> want(texts.size());
  ac.find_all_multi(spans, want);

  for (const auto isa : host_tiers()) {
    simd::set_cap(isa);
    std::vector<std::vector<match::PatternMatch>> got(texts.size());
    ac.find_all_multi(spans, got);
    for (std::size_t i = 0; i < texts.size(); ++i) {
      ASSERT_EQ(got[i].size(), want[i].size())
          << "text " << i << " isa=" << simd::to_string(isa);
      for (std::size_t k = 0; k < want[i].size(); ++k) {
        EXPECT_EQ(got[i][k].pattern, want[i][k].pattern);
        EXPECT_EQ(got[i][k].end_offset, want[i][k].end_offset);
      }
    }
  }
}

TEST(SimdParity, AhoCorasickLongTextsMatchSingleLane) {
  // One record, one long text, a 4-record Packer batch and a 9-text burst:
  // the first three are cut into overlapping pieces.  A 40 B word planted
  // every 43 bytes, at each of the 43 phases, ends at, just before and just
  // after every piece boundary; its suffixes are patterns too, so several
  // patterns end at one offset, and short random patterns over the same
  // 3-letter alphabet add dense matches across every boundary.
  CapGuard guard;
  Xoshiro256 rng{0x1046AC5ull};
  const auto letter = [&rng] {
    return static_cast<char>('a' + rng.bounded(3));
  };
  std::string word;
  for (int i = 0; i < 40; ++i) word.push_back(letter());
  std::vector<std::string> patterns{word, word.substr(10), word.substr(23),
                                    word.substr(35)};
  for (int i = 0; i < 12; ++i) {
    std::string p;
    const std::size_t len = 1 + rng.bounded(40);
    for (std::size_t j = 0; j < len; ++j) p.push_back(letter());
    patterns.push_back(std::move(p));
  }
  constexpr std::size_t kPeriod = 43;
  const std::vector<std::vector<std::size_t>> shapes{
      {1458}, {5000}, {1458, 1458, 1458, 1458},
      std::vector<std::size_t>(9, 700)};

  for (const bool compact : {true, false}) {
    const bool nocase = compact;
    const match::AhoCorasick ac =
        match::AhoCorasick::build(patterns, nocase, compact);
    for (const auto& lens : shapes) {
      for (std::size_t phase = 0; phase < kPeriod; ++phase) {
        std::vector<std::vector<std::uint8_t>> texts;
        for (const std::size_t len : lens) {
          std::vector<std::uint8_t> t(len);
          for (auto& b : t) b = static_cast<std::uint8_t>(letter());
          for (std::size_t at = phase; at + word.size() <= len;
               at += kPeriod) {
            std::memcpy(t.data() + at, word.data(), word.size());
          }
          if (nocase) {
            for (auto& b : t) {
              if (rng.bounded(2) != 0) b = static_cast<std::uint8_t>(b - 32);
            }
          }
          texts.push_back(std::move(t));
        }
        std::vector<std::span<const std::uint8_t>> spans(texts.begin(),
                                                         texts.end());
        std::vector<std::vector<match::PatternMatch>> want(texts.size());
        for (std::size_t i = 0; i < texts.size(); ++i) {
          ac.find_all(spans[i], want[i]);
        }
        for (const auto isa : host_tiers()) {
          simd::set_cap(isa);
          std::vector<std::vector<match::PatternMatch>> got(texts.size());
          ac.find_all_multi(spans, got);
          for (std::size_t i = 0; i < texts.size(); ++i) {
            ASSERT_EQ(got[i].size(), want[i].size())
                << "text " << i << " of " << texts.size() << " phase "
                << phase << " compact=" << compact
                << " isa=" << simd::to_string(isa);
            for (std::size_t k = 0; k < want[i].size(); ++k) {
              ASSERT_EQ(got[i][k].pattern, want[i][k].pattern)
                  << "text " << i << " match " << k;
              ASSERT_EQ(got[i][k].end_offset, want[i][k].end_offset)
                  << "text " << i << " match " << k;
            }
          }
        }
      }
    }
  }
}

// --- copy kernel -------------------------------------------------------------

TEST(SimdParity, CopyBytesMatchesMemcpy) {
  CapGuard guard;
  Xoshiro256 rng{0xC09Full};
  const std::size_t lengths[] = {0,  1,  2,  3,   7,   8,   15,  16,
                                 17, 31, 32, 33,  63,  64,  65,  100,
                                 240, 720, 1500, 6144};
  for (const auto isa : host_tiers()) {
    simd::set_cap(isa);
    for (const std::size_t len : lengths) {
      for (const std::size_t src_off : {0ul, 1ul, 7ul, 15ul}) {
        for (const std::size_t dst_off : {0ul, 3ul, 9ul}) {
          std::vector<std::uint8_t> src(len + 16), dst(len + 16, 0);
          rng.fill(src.data(), src.size());
          // Expected: dst_off zero bytes, the copied range, zeros to size.
          std::vector<std::uint8_t> want(dst_off, 0);
          want.insert(want.end(), src.begin() + src_off,
                      src.begin() + src_off + len);
          want.resize(dst.size(), 0);
          simd::copy_bytes(dst.data() + dst_off, src.data() + src_off, len);
          EXPECT_EQ(dst, want) << "len=" << len << " s+" << src_off << " d+"
                               << dst_off << " isa=" << simd::to_string(isa);
        }
      }
    }
  }
}

TEST(SimdParity, CopyBytesCrossPage) {
  CapGuard guard;
  Xoshiro256 rng{0xC09FACEull};
  TwoPages src_pages, dst_pages;
  for (const auto isa : host_tiers()) {
    simd::set_cap(isa);
    for (const std::size_t back : {1ul, 15ul, 33ul, 63ul}) {
      const std::size_t len = back + 97;
      std::uint8_t* src = src_pages.straddle(back);
      std::uint8_t* dst = dst_pages.straddle(back);
      rng.fill(src, len);
      std::vector<std::uint8_t> want(len);
      std::memcpy(want.data(), src, len);
      std::memset(dst, 0, len);
      simd::copy_bytes(dst, src, len);
      EXPECT_EQ(std::memcmp(dst, want.data(), len), 0)
          << "back=" << back << " isa=" << simd::to_string(isa);
    }
  }
}

// --- CRC32C ------------------------------------------------------------------

TEST(SimdParity, Crc32cAllTiers) {
  // Lengths at the edges of each fold path: one 16-byte chunk, the 64-byte
  // four-accumulator start, the 128-byte 256-bit start, one and two more
  // 128-byte steps, ragged tails after them, and ~6 KB DMA batches and
  // twice that.  Every start offset 0..15, three seeds, and the buffer
  // checksummed in two pieces (the second continues from the first's CRC).
  CapGuard guard;
  Xoshiro256 rng{0xCCC32ull};
  const std::size_t lengths[] = {0,   1,   7,   8,    9,    15,   16,  17,
                                 31,  32,  33,  63,   64,   65,   100, 127,
                                 128, 129, 159, 160,  255,  256,  257, 383,
                                 384, 767, 768, 1500, 6120, 6144, 12240};
  const std::uint32_t seeds[] = {0u, 1u, ~0u};
  std::vector<std::uint8_t> backing(12240 + 16);
  rng.fill(backing.data(), backing.size());
  for (const std::size_t len : lengths) {
    for (std::size_t off = 0; off < 16; ++off) {
      const std::span<const std::uint8_t> buf{backing.data() + off, len};
      const std::size_t cut = rng.bounded(len + 1);
      for (const std::uint32_t seed : seeds) {
        simd::set_cap(simd::Isa::kScalar);
        const std::uint32_t want = common::crc32c(buf, seed);
        for (const auto isa : host_tiers()) {
          simd::set_cap(isa);
          EXPECT_EQ(common::crc32c(buf, seed), want)
              << "len=" << len << " off=" << off << " seed=" << seed
              << " isa=" << simd::to_string(isa);
          EXPECT_EQ(common::crc32c(buf.subspan(cut),
                                   common::crc32c(buf.first(cut), seed)),
                    want)
              << "len=" << len << " off=" << off << " cut=" << cut
              << " seed=" << seed << " isa=" << simd::to_string(isa);
        }
      }
    }
  }
}

// --- accelerator module: process vs process_batch ----------------------------

TEST(SimdParity, PatternModuleProcessBatchMatchesProcess) {
  CapGuard guard;
  Xoshiro256 rng{0xFA11BACull};
  const std::vector<std::string> patterns{"attack", "overflow", "evil",
                                          "\x42\x49"};
  auto automaton = std::make_shared<const match::AhoCorasick>(
      match::AhoCorasick::build(patterns, /*case_insensitive=*/true));
  accel::PatternMatchingModule mod{automaton};

  // A mix of raw fuzz bytes and embedded pattern text at random offsets,
  // various lengths (the module parses packet headers when present and
  // scans payload bytes otherwise -- both shapes appear here).
  std::vector<std::vector<std::uint8_t>> pkts;
  for (int i = 0; i < 32; ++i) {
    // The last 8 are MTU frames, which one-record and 4-record scans cut
    // into pieces.
    std::vector<std::uint8_t> p(i < 24 ? 20 + rng.bounded(1400) : 1500);
    rng.fill(p.data(), p.size());
    if (i % 3 == 0) {
      static constexpr char kText[] = "an OVERFLOW attack hides here";
      const std::size_t at = rng.bounded(p.size() - sizeof(kText));
      std::memcpy(p.data() + at, kText, sizeof(kText) - 1);
    }
    pkts.push_back(std::move(p));
  }

  for (const auto isa : host_tiers()) {
    simd::set_cap(isa);
    // Reference: per-packet process() on copies.
    std::vector<std::uint64_t> want;
    for (const auto& p : pkts) {
      std::vector<std::uint8_t> copy = p;
      want.push_back(mod.process({copy.data(), copy.size()}).result);
      EXPECT_EQ(copy, p) << "process() must not rewrite payload bytes";
    }
    // Batched: process_batch over all packets at once.
    std::vector<std::vector<std::uint8_t>> copies = pkts;
    std::vector<std::span<std::uint8_t>> datas;
    for (auto& c : copies) datas.emplace_back(c.data(), c.size());
    std::vector<fpga::ProcessResult> results(pkts.size());
    mod.process_batch(datas, results);
    std::vector<std::uint64_t> got;
    for (std::size_t i = 0; i < pkts.size(); ++i) {
      got.push_back(results[i].result);
      EXPECT_EQ(results[i].new_len, pkts[i].size());
      EXPECT_TRUE(results[i].data_unmodified);
    }
    EXPECT_EQ(got, want) << simd::to_string(isa);
    EXPECT_EQ(copies, pkts);
    // The Packer batch shape: runs of 4 records.
    for (std::size_t first = 0; first < pkts.size(); first += 4) {
      mod.process_batch({datas.data() + first, 4}, {results.data(), 4});
      for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(results[i].result, want[first + i])
            << "record " << first + i << " " << simd::to_string(isa);
      }
    }
  }
}

}  // namespace
}  // namespace dhl
