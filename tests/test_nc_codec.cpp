// GF(2^8) network-coding suite (DESIGN.md 3.7): field algebra, SIMD
// dispatch parity of the gf256_addmul kernel, and RLNC round trips --
// decode(encode(x)) == x, including through recoding relays and across a
// DHL_FUZZ_SEED-driven parameter sweep.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#include "dhl/accel/network_coding.hpp"
#include "dhl/common/gf256.hpp"
#include "dhl/common/rng.hpp"
#include "dhl/common/simd.hpp"

namespace dhl {
namespace {

namespace gf = common::gf256;
namespace simd = common::simd;
using accel::kNcHeaderBytes;
using accel::NcDecoder;
using accel::NcHeader;

struct CapGuard {
  simd::Isa prev = simd::cap();
  ~CapGuard() { simd::set_cap(prev); }
};

std::uint64_t fuzz_seed() {
  const char* env = std::getenv("DHL_FUZZ_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 0) : 0x9c0dec5ULL;
}

std::vector<std::uint8_t> random_block(Xoshiro256& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  rng.fill(out.data(), out.size());
  return out;
}

TEST(Gf256, FieldAlgebra) {
  // Exhaustive on the interesting axioms' single-variable forms, sampled
  // on the two-variable ones.
  for (int a = 0; a < 256; ++a) {
    EXPECT_EQ(gf::mul(static_cast<std::uint8_t>(a), 1),
              static_cast<std::uint8_t>(a));
    EXPECT_EQ(gf::mul(static_cast<std::uint8_t>(a), 0), 0);
    if (a != 0) {
      EXPECT_EQ(gf::mul(static_cast<std::uint8_t>(a),
                        gf::inv(static_cast<std::uint8_t>(a))),
                1)
          << "a=" << a;
    }
  }
  Xoshiro256 rng{fuzz_seed()};
  for (int i = 0; i < 4096; ++i) {
    const auto a = static_cast<std::uint8_t>(rng());
    const auto b = static_cast<std::uint8_t>(rng());
    const auto c = static_cast<std::uint8_t>(rng());
    EXPECT_EQ(gf::mul(a, b), gf::mul(b, a));
    EXPECT_EQ(gf::mul(a, gf::mul(b, c)), gf::mul(gf::mul(a, b), c));
    // Distributivity over the field's XOR addition.
    EXPECT_EQ(gf::mul(a, static_cast<std::uint8_t>(b ^ c)),
              static_cast<std::uint8_t>(gf::mul(a, b) ^ gf::mul(a, c)));
  }
}

TEST(Gf256, AddmulMatchesScalarReferenceAcrossTiers) {
  // The AVX2 PSHUFB path must be byte-identical to the two-lookup scalar
  // loop, across lengths straddling the 32-byte vector threshold.
  CapGuard guard;
  Xoshiro256 rng{fuzz_seed()};
  for (const std::size_t n : {1u, 16u, 31u, 32u, 33u, 64u, 257u, 1500u}) {
    for (int rep = 0; rep < 8; ++rep) {
      const auto src = random_block(rng, n);
      const auto dst0 = random_block(rng, n);
      const auto coeff = static_cast<std::uint8_t>(rng());

      simd::set_cap(simd::Isa::kScalar);
      auto ref = dst0;
      gf::addmul(ref.data(), src.data(), coeff, n);
      auto ref_mul = dst0;
      gf::mul_region(ref_mul.data(), coeff, n);

      simd::set_cap(simd::kMaxIsa);
      auto out = dst0;
      gf::addmul(out.data(), src.data(), coeff, n);
      auto out_mul = dst0;
      gf::mul_region(out_mul.data(), coeff, n);

      ASSERT_EQ(ref, out) << "addmul n=" << n << " coeff=" << int(coeff);
      ASSERT_EQ(ref_mul, out_mul) << "mul_region n=" << n;
    }
  }
}

TEST(NcCodec, HeaderRoundTripAndValidation) {
  std::vector<std::uint8_t> buf(kNcHeaderBytes);
  const NcHeader h{8, 3, 512, 0xdeadbeef};
  accel::nc_write_header(buf, h);
  const auto back = accel::nc_parse_header(buf);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->window, 8);
  EXPECT_EQ(back->count, 3);
  EXPECT_EQ(back->sym_len, 512);
  EXPECT_EQ(back->seed, 0xdeadbeefu);

  buf[0] = 0;  // window 0
  EXPECT_FALSE(accel::nc_parse_header(buf).has_value());
  buf[0] = accel::kNcMaxWindow + 1;
  EXPECT_FALSE(accel::nc_parse_header(buf).has_value());
}

/// Encode `window` coded packets from one source block (fresh seed each),
/// returning them as decoder-ready rows.
std::vector<std::vector<std::uint8_t>> encode_generation(
    const std::vector<std::uint8_t>& block, unsigned window, unsigned sym_len,
    std::uint32_t seed_base, unsigned count) {
  accel::NcEncodeModule enc;
  std::vector<std::vector<std::uint8_t>> rows;
  for (unsigned k = 0; k < count; ++k) {
    auto rec = accel::nc_encode_record(block, window, sym_len, seed_base + k);
    const auto res = enc.process(rec);
    EXPECT_EQ(res.result, accel::NcEncodeModule::kOk);
    EXPECT_EQ(res.new_len, kNcHeaderBytes + window + sym_len);
    rows.emplace_back(rec.begin() + kNcHeaderBytes,
                      rec.begin() + static_cast<long>(res.new_len));
  }
  return rows;
}

TEST(NcCodec, DecodeRecoversEncodedBlock) {
  Xoshiro256 rng{fuzz_seed()};
  const unsigned window = 8, sym_len = 128;
  const auto block = random_block(rng, window * sym_len);
  const auto rows = encode_generation(block, window, sym_len, 100, window);

  NcDecoder dec{window, sym_len};
  for (const auto& row : rows) {
    dec.add_row({row.data(), window}, {row.data() + window, sym_len});
  }
  ASSERT_TRUE(dec.complete());
  for (unsigned i = 0; i < window; ++i) {
    const auto sym = dec.symbol(i);
    EXPECT_EQ(0, std::memcmp(sym.data(), block.data() + i * sym_len, sym_len))
        << "symbol " << i;
  }
}

TEST(NcCodec, DuplicateRowsAreNotInnovative) {
  Xoshiro256 rng{fuzz_seed() + 1};
  const unsigned window = 4, sym_len = 64;
  const auto block = random_block(rng, window * sym_len);
  const auto rows = encode_generation(block, window, sym_len, 7, 1);

  NcDecoder dec{window, sym_len};
  EXPECT_TRUE(dec.add_row({rows[0].data(), window},
                          {rows[0].data() + window, sym_len}));
  // The same row again adds nothing.
  EXPECT_FALSE(dec.add_row({rows[0].data(), window},
                           {rows[0].data() + window, sym_len}));
  EXPECT_EQ(dec.rank(), 1u);
}

TEST(NcCodec, DecodeModuleMatchesHostDecoder) {
  Xoshiro256 rng{fuzz_seed() + 2};
  const unsigned window = 6, sym_len = 200;
  const auto block = random_block(rng, window * sym_len);
  const auto rows = encode_generation(block, window, sym_len, 42, window);

  auto rec = accel::nc_rows_record(rows, window, sym_len, 0);
  accel::NcDecodeModule dec;
  const auto res = dec.process(rec);
  ASSERT_EQ(res.result, window);
  ASSERT_EQ(res.new_len, window * sym_len);
  EXPECT_EQ(0, std::memcmp(rec.data(), block.data(), window * sym_len));
}

TEST(NcCodec, RecodedRowsStillDecode) {
  // Relay topology: source emits 2*window coded packets; a relay recodes
  // pairs into fresh combinations; the sink decodes from recoded packets
  // only.  Recoding must preserve decodability without the relay ever
  // decoding.
  Xoshiro256 rng{fuzz_seed() + 3};
  const unsigned window = 5, sym_len = 96;
  const auto block = random_block(rng, window * sym_len);
  const auto rows = encode_generation(block, window, sym_len, 900, 2 * window);

  accel::NcRecodeModule recode;
  NcDecoder dec{window, sym_len};
  for (unsigned pair = 0; pair < window + 2 && !dec.complete(); ++pair) {
    const std::vector<std::vector<std::uint8_t>> in{rows[2 * pair],
                                                    rows[2 * pair + 1]};
    auto rec = accel::nc_rows_record(in, window, sym_len, 5000 + pair);
    const auto res = recode.process(rec);
    ASSERT_EQ(res.result, accel::NcRecodeModule::kOk);
    ASSERT_EQ(res.new_len, kNcHeaderBytes + window + sym_len);
    dec.add_row({rec.data() + kNcHeaderBytes, window},
                {rec.data() + kNcHeaderBytes + window, sym_len});
  }
  ASSERT_TRUE(dec.complete());
  for (unsigned i = 0; i < window; ++i) {
    const auto sym = dec.symbol(i);
    EXPECT_EQ(0, std::memcmp(sym.data(), block.data() + i * sym_len, sym_len));
  }
}

TEST(NcCodec, SingularRowSetReturnsRecordUntouched) {
  Xoshiro256 rng{fuzz_seed() + 4};
  const unsigned window = 4, sym_len = 32;
  const auto block = random_block(rng, window * sym_len);
  // window-1 distinct rows cannot reach full rank.
  const auto rows = encode_generation(block, window, sym_len, 60, window - 1);
  auto rec = accel::nc_rows_record(rows, window, sym_len, 0);
  const auto before = rec;
  accel::NcDecodeModule dec;
  const auto res = dec.process(rec);
  EXPECT_EQ(res.result, accel::NcDecodeModule::kSingular);
  EXPECT_TRUE(res.data_unmodified);
  EXPECT_EQ(rec, before);
}

TEST(NcCodec, MalformedRecordsAreFlaggedNotCrashed) {
  accel::NcEncodeModule enc;
  accel::NcDecodeModule dec;
  std::vector<std::uint8_t> junk(5, 0xab);  // shorter than a header
  EXPECT_EQ(enc.process(junk).result, accel::NcEncodeModule::kMalformed);
  EXPECT_EQ(dec.process(junk).result, accel::NcDecodeModule::kMalformed);

  // Header promises more rows than the record carries.
  std::vector<std::uint8_t> rec(kNcHeaderBytes + 10, 0);
  accel::nc_write_header(rec, NcHeader{4, 7, 32, 0});
  EXPECT_EQ(dec.process(rec).result, accel::NcDecodeModule::kMalformed);

  // Degenerate generations: with window == 1 or sym_len == 1 the coded row
  // (window + sym_len bytes) is one byte longer than the source block, so
  // the encoder must refuse instead of writing past the record.
  for (const auto& [window, sym_len] :
       {std::pair{1u, 1u}, std::pair{1u, 64u}, std::pair{8u, 1u}}) {
    const std::vector<std::uint8_t> block(window * sym_len, 0x5a);
    auto src = accel::nc_encode_record(block, window, sym_len, 3);
    const auto before = src;
    const auto res = enc.process(src);
    EXPECT_EQ(res.result, accel::NcEncodeModule::kMalformed)
        << "window=" << window << " sym=" << sym_len;
    EXPECT_TRUE(res.data_unmodified);
    EXPECT_EQ(res.new_len, src.size());
    EXPECT_EQ(src, before);
  }
}

TEST(NcCodec, FuzzSweepDecodeEqualsSource) {
  // The acceptance-criteria sweep: random window / symbol-length / seed
  // combinations, every one must round-trip bit-exactly (or, when the
  // coded row cannot fit, be refused untouched).  DHL_FUZZ_SEED
  // reseeds the whole schedule (the CI sanitizer legs sweep several).
  Xoshiro256 rng{fuzz_seed() ^ 0xfeedULL};
  for (int trial = 0; trial < 40; ++trial) {
    const unsigned window = 1 + static_cast<unsigned>(
                                    rng.bounded(accel::kNcMaxWindow));
    const unsigned sym_len = 1 + static_cast<unsigned>(rng.bounded(160));
    const auto seed = static_cast<std::uint32_t>(rng());
    const auto block = random_block(rng, window * sym_len);
    // Extra rows beyond the window model lossy over-provisioning (and keep
    // the all-random-rows rank deficit astronomically unlikely: the chance
    // of window+2+ random GF(256) rows not spanning is ~256^-3).
    const unsigned count = window + 2 + static_cast<unsigned>(rng.bounded(3));
    if (window == 1 || sym_len == 1) {
      // No room for the coded row: the encoder flags the record and leaves
      // it untouched.
      auto src = accel::nc_encode_record(block, window, sym_len, seed);
      const auto before = src;
      accel::NcEncodeModule enc;
      ASSERT_EQ(enc.process(src).result, accel::NcEncodeModule::kMalformed)
          << "trial " << trial << " window=" << window << " sym=" << sym_len;
      ASSERT_EQ(src, before);
      continue;
    }
    const auto rows = encode_generation(block, window, sym_len, seed, count);

    auto rec = accel::nc_rows_record(rows, window, sym_len, 0);
    accel::NcDecodeModule dec;
    const auto res = dec.process(rec);
    ASSERT_EQ(res.result, window)
        << "trial " << trial << " window=" << window << " sym=" << sym_len;
    ASSERT_EQ(0, std::memcmp(rec.data(), block.data(), window * sym_len));
  }
}

}  // namespace
}  // namespace dhl
