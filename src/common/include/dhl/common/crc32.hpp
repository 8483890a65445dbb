#pragma once

// CRC32C (Castagnoli) over byte buffers.
//
// The DMA engine stamps a checksum over every batch's wire bytes at the
// submit boundary and the Distributor / device Dispatcher verify it on
// receipt, so a corrupted or truncated transfer is dropped as a unit
// instead of desynchronizing the record walk (DESIGN.md section 3.3).  The
// simulator runs all four passes over a batch (TX stamp, Dispatcher verify,
// RX stamp, Distributor verify) in host time, so throughput matters.  The
// x86-64 path folds the buffer with carry-less multiplies (Gopal et al.,
// "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
// Instruction", Intel 2009): four 256-bit VPCLMULQDQ accumulators under the
// avx2 cap on hosts that have the instruction, four 128-bit PCLMULQDQ ones
// otherwise; the SSE4.2 crc32 instruction reduces the folded 16 bytes and
// runs the ragged tail.  Everything else gets slice-by-8 tables; a
// byte-at-a-time loop remains for big-endian hosts and ragged tails.

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

#include "dhl/common/simd.hpp"

namespace dhl::common {

namespace detail {

/// Reflected CRC32C polynomial (iSCSI / SSE4.2 crc32 instruction).
inline constexpr std::uint32_t kCrc32cPoly = 0x82f63b78u;

/// Slice tables: kCrc32cTables[0] is the classic byte table; entry
/// [k][b] advances a CRC whose low byte is `b` across k additional zero
/// bytes, which lets the slice-by-8 loop fold 8 input bytes per step.
inline constexpr std::array<std::array<std::uint32_t, 256>, 8>
make_crc32c_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? kCrc32cPoly : 0u);
    }
    t[0][i] = crc;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
  }
  return t;
}

inline constexpr std::array<std::array<std::uint32_t, 256>, 8> kCrc32cTables =
    make_crc32c_tables();

/// x^n mod P, bit-reflected (bit 31 - i holds the coefficient of x^i) and
/// shifted left by one: the form a fold multiplier takes (see Crc32cFold).
inline constexpr std::uint64_t crc32c_xpow(std::size_t n) {
  std::uint32_t r = 0x80000000u;  // x^0
  for (std::size_t i = 0; i < n; ++i) {
    r = (r >> 1) ^ ((r & 1u) ? kCrc32cPoly : 0u);
  }
  return std::uint64_t{r} << 1;
}

/// The multipliers that move a 16-byte chunk `bits` further down the
/// message.  A chunk loaded little-endian holds, bit-reflected, a
/// polynomial X = H x^64 + L of degree < 128 (bit 0 of byte 0 is the x^127
/// coefficient; H is quadword 0, L quadword 1), and mod P
///   X x^bits == H (x^(bits+32) mod P) x^32 + L (x^(bits-32) mod P) x^32.
/// A carry-less multiply of a bit-reflected quadword by a bit-reflected
/// 32-bit remainder shifted left by one is exactly that product times x^32,
/// in the chunk's own layout, so one fold is two PCLMULQDQs and an xor.
struct Crc32cFold {
  std::uint64_t q0;  ///< multiplier of quadword 0
  std::uint64_t q1;  ///< multiplier of quadword 1
};

inline constexpr Crc32cFold crc32c_fold(std::size_t bits) {
  return {crc32c_xpow(bits + 32), crc32c_xpow(bits - 32)};
}

inline constexpr Crc32cFold kCrc32cFold128 = crc32c_fold(128);
inline constexpr Crc32cFold kCrc32cFold256 = crc32c_fold(256);
inline constexpr Crc32cFold kCrc32cFold512 = crc32c_fold(512);
inline constexpr Crc32cFold kCrc32cFold1024 = crc32c_fold(1024);

/// Raw (pre-inverted) CRC update over `data` -- table paths.
inline std::uint32_t crc32c_update_sw(std::span<const std::uint8_t> data,
                                      std::uint32_t crc) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  const auto& t = kCrc32cTables;
  if constexpr (std::endian::native == std::endian::little) {
    while (n >= 8) {
      std::uint32_t lo;
      std::uint32_t hi;
      std::memcpy(&lo, p, 4);
      std::memcpy(&hi, p + 4, 4);
      lo ^= crc;
      crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
            t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
            t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
      p += 8;
      n -= 8;
    }
  }
  while (n-- > 0) {
    crc = (crc >> 8) ^ t[0][(crc ^ *p++) & 0xffu];
  }
  return crc;
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define DHL_CRC32C_HAS_HW 1

/// Raw CRC update with the SSE4.2 crc32 instruction alone: the ragged tail,
/// and whole buffers shorter than one 64-byte fold step.
__attribute__((target("sse4.2"))) inline std::uint32_t crc32c_update_crc32q(
    const std::uint8_t* p, std::size_t n, std::uint32_t crc) {
  std::uint64_t c = crc;
  while (n >= 8) {
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    c = __builtin_ia32_crc32di(c, v);
    p += 8;
    n -= 8;
  }
  crc = static_cast<std::uint32_t>(c);
  if (n >= 4) {
    std::uint32_t v;
    std::memcpy(&v, p, 4);
    crc = __builtin_ia32_crc32si(crc, v);
    p += 4;
    n -= 4;
  }
  while (n-- > 0) {
    crc = __builtin_ia32_crc32qi(crc, *p++);
  }
  return crc;
}

/// `acc` moved on by the fold `k`, xored with the chunk `next`.
__attribute__((target("pclmul,sse4.2"))) inline __m128i crc32c_fold_step(
    __m128i acc, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(acc, k, 0x00),
                                     _mm_clmulepi64_si128(acc, k, 0x11)),
                       next);
}

__attribute__((target("pclmul,sse4.2"))) inline __m128i crc32c_fold_vec(
    Crc32cFold f) {
  return _mm_set_epi64x(static_cast<long long>(f.q1),
                        static_cast<long long>(f.q0));
}

__attribute__((target("pclmul,sse4.2"))) inline __m128i crc32c_load(
    const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// The end both fold paths share: fold the remaining 16-byte chunks into
/// `acc`, reduce it to 32 bits with two crc32q from zero (the raw CRC of
/// the 16 bytes it holds is the raw CRC of everything folded into it), then
/// run the crc32 instruction over the ragged tail.
__attribute__((target("pclmul,sse4.2"))) inline std::uint32_t crc32c_finish(
    __m128i acc, const std::uint8_t* p, std::size_t n) {
  const __m128i k128 = crc32c_fold_vec(kCrc32cFold128);
  while (n >= 16) {
    acc = crc32c_fold_step(acc, k128, crc32c_load(p));
    p += 16;
    n -= 16;
  }
  std::uint64_t c = __builtin_ia32_crc32di(
      0, static_cast<std::uint64_t>(_mm_cvtsi128_si64(acc)));
  c = __builtin_ia32_crc32di(
      c, static_cast<std::uint64_t>(_mm_extract_epi64(acc, 1)));
  return crc32c_update_crc32q(p, n, static_cast<std::uint32_t>(c));
}

/// Four 128-bit accumulators over consecutive 16-byte chunks, each folded
/// 64 bytes on per step (n >= 64).
__attribute__((target("pclmul,sse4.2"))) inline std::uint32_t crc32c_fold128(
    const std::uint8_t* p, std::size_t n, std::uint32_t crc) {
  __m128i x0 = _mm_xor_si128(crc32c_load(p),
                             _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = crc32c_load(p + 16);
  __m128i x2 = crc32c_load(p + 32);
  __m128i x3 = crc32c_load(p + 48);
  p += 64;
  n -= 64;
  const __m128i k512 = crc32c_fold_vec(kCrc32cFold512);
  while (n >= 64) {
    x0 = crc32c_fold_step(x0, k512, crc32c_load(p));
    x1 = crc32c_fold_step(x1, k512, crc32c_load(p + 16));
    x2 = crc32c_fold_step(x2, k512, crc32c_load(p + 32));
    x3 = crc32c_fold_step(x3, k512, crc32c_load(p + 48));
    p += 64;
    n -= 64;
  }
  const __m128i k128 = crc32c_fold_vec(kCrc32cFold128);
  x1 = crc32c_fold_step(x0, k128, x1);
  x2 = crc32c_fold_step(x1, k128, x2);
  x3 = crc32c_fold_step(x2, k128, x3);
  return crc32c_finish(x3, p, n);
}

__attribute__((target("avx2,vpclmulqdq,pclmul,sse4.2"))) inline __m256i
crc32c_fold_step256(__m256i acc, __m256i k, __m256i next) {
  return _mm256_xor_si256(
      _mm256_xor_si256(_mm256_clmulepi64_epi128(acc, k, 0x00),
                       _mm256_clmulepi64_epi128(acc, k, 0x11)),
      next);
}

__attribute__((target("avx2,vpclmulqdq,pclmul,sse4.2"))) inline __m256i
crc32c_fold_vec256(Crc32cFold f) {
  return _mm256_set_epi64x(
      static_cast<long long>(f.q1), static_cast<long long>(f.q0),
      static_cast<long long>(f.q1), static_cast<long long>(f.q0));
}

__attribute__((target("avx2,vpclmulqdq,pclmul,sse4.2"))) inline __m256i
crc32c_load256(const std::uint8_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

/// Four 256-bit accumulators, two 16-byte chunks each, folded 128 bytes on
/// per step (n >= 128); then 32-byte steps, and the two halves of the last
/// accumulator fold into one 128-bit chunk for crc32c_finish.
__attribute__((target("avx2,vpclmulqdq,pclmul,sse4.2"))) inline std::uint32_t
crc32c_fold256(const std::uint8_t* p, std::size_t n, std::uint32_t crc) {
  __m256i y0 = _mm256_xor_si256(
      crc32c_load256(p),
      _mm256_zextsi128_si256(_mm_cvtsi32_si128(static_cast<int>(crc))));
  __m256i y1 = crc32c_load256(p + 32);
  __m256i y2 = crc32c_load256(p + 64);
  __m256i y3 = crc32c_load256(p + 96);
  p += 128;
  n -= 128;
  const __m256i k1024 = crc32c_fold_vec256(kCrc32cFold1024);
  while (n >= 128) {
    y0 = crc32c_fold_step256(y0, k1024, crc32c_load256(p));
    y1 = crc32c_fold_step256(y1, k1024, crc32c_load256(p + 32));
    y2 = crc32c_fold_step256(y2, k1024, crc32c_load256(p + 64));
    y3 = crc32c_fold_step256(y3, k1024, crc32c_load256(p + 96));
    p += 128;
    n -= 128;
  }
  const __m256i k256 = crc32c_fold_vec256(kCrc32cFold256);
  y1 = crc32c_fold_step256(y0, k256, y1);
  y2 = crc32c_fold_step256(y1, k256, y2);
  y3 = crc32c_fold_step256(y2, k256, y3);
  while (n >= 32) {
    y3 = crc32c_fold_step256(y3, k256, crc32c_load256(p));
    p += 32;
    n -= 32;
  }
  const __m128i x =
      crc32c_fold_step(_mm256_castsi256_si128(y3),
                       crc32c_fold_vec(kCrc32cFold128),
                       _mm256_extracti128_si256(y3, 1));
  return crc32c_finish(x, p, n);
}

/// Raw (pre-inverted) CRC update over `data` -- hardware path.
inline std::uint32_t crc32c_update_hw(std::span<const std::uint8_t> data,
                                      std::uint32_t crc) {
  const std::uint8_t* p = data.data();
  const std::size_t n = data.size();
  if (n >= 128 && simd::enabled(simd::Isa::kAvx2) &&
      simd::host_has_vpclmulqdq()) {
    return crc32c_fold256(p, n, crc);
  }
  if (n >= 64) return crc32c_fold128(p, n, crc);
  return crc32c_update_crc32q(p, n, crc);
}

inline bool crc32c_hw_available() {
  // Registered as kernel "crc32c" (tier sse42, PCLMULQDQ probe) in
  // simd::kernel_report(); honoring the cap keeps the slice-by-8 reference
  // path exercised under the DHL_SIMD=scalar CI leg.
  return simd::enabled(simd::Isa::kSse42) && simd::host_has_pclmul();
}
#endif  // x86-64 gcc/clang

}  // namespace detail

/// CRC32C of `data`, continuing from `seed` (pass a previous return value to
/// checksum a buffer in pieces; 0 starts a fresh checksum).
inline std::uint32_t crc32c(std::span<const std::uint8_t> data,
                            std::uint32_t seed = 0) {
  const std::uint32_t crc = ~seed;
#ifdef DHL_CRC32C_HAS_HW
  if (detail::crc32c_hw_available()) {
    return ~detail::crc32c_update_hw(data, crc);
  }
#endif
  return ~detail::crc32c_update_sw(data, crc);
}

}  // namespace dhl::common
