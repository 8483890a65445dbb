#pragma once

// CRC32C (Castagnoli) over byte buffers.
//
// The DMA engine stamps a checksum over every batch's wire bytes at the
// submit boundary and the Distributor / device Dispatcher verify it on
// receipt, so a corrupted or truncated transfer is dropped as a unit
// instead of desynchronizing the record walk (DESIGN.md section 3.3).
// The Distributor's verify runs inside the timed RX poll, so throughput
// matters: the x86-64 path uses the SSE4.2 crc32 instruction (selected at
// runtime, same polynomial), everything else gets slice-by-8 tables; a
// byte-at-a-time loop remains for big-endian hosts and ragged tails.
// crc32q has 3-cycle latency and 1-cycle throughput, so the hardware path
// runs three independent chains over consecutive 256 B blocks and folds
// them together with two zero-shift tables (no PCLMULQDQ, so no extra CPU
// probe).

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

/// Table form of the linear map that advances a raw CRC across `zeros` zero
/// bytes: entry [k][b] is the image of byte b at bit 8k, so the image of a
/// 32-bit CRC is the xor of four lookups (crc32c_shift).  Built from the
/// images of the 32 single-bit CRCs.
inline constexpr std::array<std::array<std::uint32_t, 256>, 4>
make_crc32c_shift_table(std::size_t zeros) {
  std::uint32_t basis[32] = {};
  for (int bit = 0; bit < 32; ++bit) {
    std::uint32_t crc = 1u << bit;
    for (std::size_t z = 0; z < zeros; ++z) {
      crc = (crc >> 8) ^ kCrc32cTables[0][crc & 0xffu];
    }
    basis[bit] = crc;
  }
  std::array<std::array<std::uint32_t, 256>, 4> t{};
  for (std::size_t k = 0; k < 4; ++k) {
    for (std::uint32_t b = 0; b < 256; ++b) {
      std::uint32_t image = 0;
      for (std::size_t bit = 0; bit < 8; ++bit) {
        if ((b >> bit) & 1u) image ^= basis[8 * k + bit];
      }
      t[k][b] = image;
    }
  }
  return t;
}

/// Block length of each of the hardware path's three chains.
inline constexpr std::size_t kCrc32cBlock = 256;
inline constexpr std::array<std::array<std::uint32_t, 256>, 4>
    kCrc32cShift1Block = make_crc32c_shift_table(kCrc32cBlock);
inline constexpr std::array<std::array<std::uint32_t, 256>, 4>
    kCrc32cShift2Blocks = make_crc32c_shift_table(2 * kCrc32cBlock);

inline std::uint32_t crc32c_shift(
    const std::array<std::array<std::uint32_t, 256>, 4>& t,
    std::uint32_t crc) {
  return t[0][crc & 0xffu] ^ t[1][(crc >> 8) & 0xffu] ^
         t[2][(crc >> 16) & 0xffu] ^ t[3][crc >> 24];
}

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

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define DHL_CRC32C_HAS_HW 1

__attribute__((target("sse4.2"))) inline std::uint32_t crc32c_update_hw(
    std::span<const std::uint8_t> data, std::uint32_t crc) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
#if defined(__x86_64__)
  // Raw CRC updates are linear: crc(A|B|C, x) = crc(C, 0) ^ shift_|C|(
  // crc(B, 0)) ^ shift_|B|+|C|(crc(A, x)), so chains over B and C can start
  // from 0 and run beside the chain over A.
  while (n >= 3 * kCrc32cBlock) {
    std::uint64_t a = crc;
    std::uint64_t b = 0;
    std::uint64_t c = 0;
    for (std::size_t i = 0; i < kCrc32cBlock; i += 8) {
      std::uint64_t va;
      std::uint64_t vb;
      std::uint64_t vc;
      std::memcpy(&va, p + i, 8);
      std::memcpy(&vb, p + kCrc32cBlock + i, 8);
      std::memcpy(&vc, p + 2 * kCrc32cBlock + i, 8);
      a = __builtin_ia32_crc32di(a, va);
      b = __builtin_ia32_crc32di(b, vb);
      c = __builtin_ia32_crc32di(c, vc);
    }
    crc = crc32c_shift(kCrc32cShift2Blocks, static_cast<std::uint32_t>(a)) ^
          crc32c_shift(kCrc32cShift1Block, static_cast<std::uint32_t>(b)) ^
          static_cast<std::uint32_t>(c);
    p += 3 * kCrc32cBlock;
    n -= 3 * kCrc32cBlock;
  }
  std::uint64_t c = crc;
  while (n >= 8) {
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    c = __builtin_ia32_crc32di(c, v);
    p += 8;
    n -= 8;
  }
  crc = static_cast<std::uint32_t>(c);
#endif
  while (n >= 4) {
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

inline bool crc32c_hw_available() {
  // Registered as kernel "crc32c" (tier sse42) in simd::kernel_report();
  // honoring the cap keeps the slice-by-8 reference path exercised under
  // the DHL_SIMD=scalar CI leg.
  return simd::enabled(simd::Isa::kSse42);
}
#endif  // x86 gcc/clang

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
