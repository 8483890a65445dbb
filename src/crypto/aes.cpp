#include "dhl/crypto/aes.hpp"

#include <cstring>

#include "dhl/common/check.hpp"
#include "dhl/common/simd.hpp"

namespace dhl::crypto {

namespace {

// --- GF(2^8) arithmetic and table generation ---------------------------------
//
// The S-box and T-tables are computed once at startup from first principles
// (multiplicative inverse in GF(2^8) + affine map), which avoids transcribing
// 2 KB of magic constants.

std::uint8_t gf_mul(std::uint8_t a, std::uint8_t b) {
  std::uint8_t p = 0;
  for (int i = 0; i < 8; ++i) {
    if (b & 1) p ^= a;
    const bool hi = a & 0x80;
    a <<= 1;
    if (hi) a ^= 0x1b;  // x^8 + x^4 + x^3 + x + 1
    b >>= 1;
  }
  return p;
}

struct Tables {
  std::array<std::uint8_t, 256> sbox;
  std::array<std::uint8_t, 256> inv_sbox;
  // Encryption T-tables: Te[i][x] combines SubBytes+ShiftRows+MixColumns.
  std::array<std::array<std::uint32_t, 256>, 4> te;

  Tables() {
    // Multiplicative inverses via exhaustive search (256^2 ops, once).
    std::array<std::uint8_t, 256> inv{};
    for (int a = 1; a < 256; ++a) {
      for (int b = 1; b < 256; ++b) {
        if (gf_mul(static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b)) == 1) {
          inv[a] = static_cast<std::uint8_t>(b);
          break;
        }
      }
    }
    for (int x = 0; x < 256; ++x) {
      const std::uint8_t i = inv[x];
      // Affine transformation.
      std::uint8_t s = 0;
      for (int bit = 0; bit < 8; ++bit) {
        const int v = ((i >> bit) & 1) ^ ((i >> ((bit + 4) % 8)) & 1) ^
                      ((i >> ((bit + 5) % 8)) & 1) ^ ((i >> ((bit + 6) % 8)) & 1) ^
                      ((i >> ((bit + 7) % 8)) & 1) ^ ((0x63 >> bit) & 1);
        s |= static_cast<std::uint8_t>(v << bit);
      }
      sbox[x] = s;
    }
    for (int x = 0; x < 256; ++x) inv_sbox[sbox[x]] = static_cast<std::uint8_t>(x);

    for (int x = 0; x < 256; ++x) {
      const std::uint8_t s = sbox[x];
      const std::uint32_t t =
          (static_cast<std::uint32_t>(gf_mul(s, 2)) << 24) |
          (static_cast<std::uint32_t>(s) << 16) |
          (static_cast<std::uint32_t>(s) << 8) |
          static_cast<std::uint32_t>(gf_mul(s, 3));
      te[0][x] = t;
      te[1][x] = (t >> 8) | (t << 24);
      te[2][x] = (t >> 16) | (t << 16);
      te[3][x] = (t >> 24) | (t << 8);
    }
  }
};

const Tables& tables() {
  static const Tables t;
  return t;
}

std::uint32_t load_be32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) | p[3];
}

void store_be32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

std::uint32_t sub_word(std::uint32_t w) {
  const auto& sb = tables().sbox;
  return (static_cast<std::uint32_t>(sb[(w >> 24) & 0xff]) << 24) |
         (static_cast<std::uint32_t>(sb[(w >> 16) & 0xff]) << 16) |
         (static_cast<std::uint32_t>(sb[(w >> 8) & 0xff]) << 8) |
         sb[w & 0xff];
}

std::uint32_t rot_word(std::uint32_t w) { return (w << 8) | (w >> 24); }

/// Increment a 128-bit big-endian counter in place (scalar reference).
void inc_ctr_be128(std::uint8_t ctr[16]) {
  for (int i = 15; i >= 0; --i) {
    if (++ctr[i] != 0) break;
  }
}

#ifdef DHL_SIMD_X86
#define DHL_AES_HAS_NI 1

__attribute__((target("aes,sse2"))) void encrypt_block_aesni(
    const std::uint8_t* rk, const std::uint8_t in[16], std::uint8_t out[16]) {
  __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in));
  b = _mm_xor_si128(b, _mm_loadu_si128(reinterpret_cast<const __m128i*>(rk)));
  for (int round = 1; round < Aes256::kRounds; ++round) {
    b = _mm_aesenc_si128(
        b, _mm_loadu_si128(reinterpret_cast<const __m128i*>(rk + 16 * round)));
  }
  b = _mm_aesenclast_si128(
      b, _mm_loadu_si128(
             reinterpret_cast<const __m128i*>(rk + 16 * Aes256::kRounds)));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), b);
}

/// The big-endian 128-bit CTR counter as two host-order halves.  Block i of
/// a group is (hi:lo) + i; a wrap of the low half carries into the high
/// half, and the high half wraps mod 2^64 like the scalar byte increment.
struct Ctr128 {
  std::uint64_t hi;
  std::uint64_t lo;

  void advance(std::uint64_t n) {
    lo += n;
    hi += lo < n ? 1 : 0;
  }
};

/// Counter block i of the group starting at `c`, in wire byte order.
__attribute__((target("aes,sse2"), always_inline)) inline __m128i ctr_block(
    Ctr128 c, std::uint64_t i) {
  const std::uint64_t lo = c.lo + i;
  const std::uint64_t hi = c.hi + (lo < c.lo ? 1 : 0);
  return _mm_set_epi64x(static_cast<long long>(__builtin_bswap64(lo)),
                        static_cast<long long>(__builtin_bswap64(hi)));
}

/// Keystream of N consecutive counter blocks.  N is fixed, so the unrolled
/// rounds keep all N blocks in registers and each round key is loaded once
/// per round for the whole group.
template <int N>
__attribute__((target("aes,sse2"), always_inline)) inline void ctr_keystream(
    const std::uint8_t* rk, Ctr128 c, __m128i b[N]) {
  const __m128i k0 = _mm_load_si128(reinterpret_cast<const __m128i*>(rk));
#pragma GCC unroll 8
  for (int i = 0; i < N; ++i) {
    b[i] = _mm_xor_si128(ctr_block(c, static_cast<std::uint64_t>(i)), k0);
  }
#pragma GCC unroll 13
  for (int round = 1; round < Aes256::kRounds; ++round) {
    const __m128i k =
        _mm_load_si128(reinterpret_cast<const __m128i*>(rk + 16 * round));
#pragma GCC unroll 8
    for (int i = 0; i < N; ++i) b[i] = _mm_aesenc_si128(b[i], k);
  }
  const __m128i klast = _mm_load_si128(
      reinterpret_cast<const __m128i*>(rk + 16 * Aes256::kRounds));
#pragma GCC unroll 8
  for (int i = 0; i < N; ++i) b[i] = _mm_aesenclast_si128(b[i], klast);
}

/// out[16 i ..] = in[16 i ..] ^ b[i] for N whole blocks.
template <int N>
__attribute__((target("aes,sse2"), always_inline)) inline void xor_blocks(
    const std::uint8_t* in, std::uint8_t* out, const __m128i b[N]) {
#pragma GCC unroll 8
  for (int i = 0; i < N; ++i) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + 16 * i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 16 * i),
                     _mm_xor_si128(v, b[i]));
  }
}

/// CTR keystream application with 8 counter blocks in flight: aesenc has a
/// 4-7 cycle latency, so eight independent blocks fill the round loop.
/// The counter lives in two general registers and each block is built with
/// two byte swaps.  After the 8-block groups, one whole 4-block group runs
/// if more than 4 blocks remain, and one last group of at most 4 blocks --
/// the last one possibly partial -- ends the buffer.
__attribute__((target("aes,sse2"))) void aes256_ctr_aesni(
    const std::uint8_t* rk, const std::uint8_t ctr[16], const std::uint8_t* in,
    std::uint8_t* out, std::size_t len) {
  std::uint64_t hi_be;
  std::uint64_t lo_be;
  std::memcpy(&hi_be, ctr, 8);
  std::memcpy(&lo_be, ctr + 8, 8);
  Ctr128 c{__builtin_bswap64(hi_be), __builtin_bswap64(lo_be)};
  __m128i b[8];
  while (len >= 8 * 16) {
    ctr_keystream<8>(rk, c, b);
    xor_blocks<8>(in, out, b);
    c.advance(8);
    in += 8 * 16;
    out += 8 * 16;
    len -= 8 * 16;
  }
  if (len > 4 * 16) {
    ctr_keystream<4>(rk, c, b);
    xor_blocks<4>(in, out, b);
    c.advance(4);
    in += 4 * 16;
    out += 4 * 16;
    len -= 4 * 16;
  }
  if (len == 0) return;
  ctr_keystream<4>(rk, c, b);
#pragma GCC unroll 4
  for (int i = 0; i < 4; ++i) {
    if (len >= 16) {
      xor_blocks<1>(in, out, b + i);
      in += 16;
      out += 16;
      len -= 16;
    } else if (len > 0) {
      alignas(16) std::uint8_t ks[16];
      _mm_store_si128(reinterpret_cast<__m128i*>(ks), b[i]);
      for (std::size_t j = 0; j < len; ++j) out[j] = in[j] ^ ks[j];
      len = 0;
    }
  }
}

#endif  // DHL_SIMD_X86

}  // namespace

Aes256::Aes256(std::span<const std::uint8_t, kKeyBytes> key) {
  (void)tables();  // force table construction before first use
  constexpr int kNk = 8;  // 256-bit key = 8 words
  constexpr int kNw = 4 * (kRounds + 1);
  std::uint32_t rcon = 1;
  for (int i = 0; i < kNk; ++i) round_keys_[i] = load_be32(key.data() + 4 * i);
  for (int i = kNk; i < kNw; ++i) {
    std::uint32_t temp = round_keys_[i - 1];
    if (i % kNk == 0) {
      temp = sub_word(rot_word(temp)) ^ (rcon << 24);
      rcon = gf_mul(static_cast<std::uint8_t>(rcon), 2);
    } else if (i % kNk == 4) {
      temp = sub_word(temp);
    }
    round_keys_[i] = round_keys_[i - kNk] ^ temp;
  }
  // Serialize the schedule to wire byte order (big-endian words) for the
  // AES-NI kernels: AddRoundKey is a byte-wise XOR, so the byte-order key
  // block XORed against the byte-order state is exactly the scalar path.
  for (int i = 0; i < kNw; ++i) {
    store_be32(&round_key_bytes_[4 * static_cast<std::size_t>(i)],
               round_keys_[static_cast<std::size_t>(i)]);
  }
}

void Aes256::encrypt_block(const std::uint8_t in[kBlockBytes],
                           std::uint8_t out[kBlockBytes]) const {
#ifdef DHL_AES_HAS_NI
  if (common::simd::enabled(common::simd::Isa::kAesni)) {
    encrypt_block_aesni(round_key_bytes_.data(), in, out);
    return;
  }
#endif
  encrypt_block_scalar(in, out);
}

void Aes256::encrypt_block_scalar(const std::uint8_t in[kBlockBytes],
                                  std::uint8_t out[kBlockBytes]) const {
  const auto& tb = tables();
  std::uint32_t s0 = load_be32(in) ^ round_keys_[0];
  std::uint32_t s1 = load_be32(in + 4) ^ round_keys_[1];
  std::uint32_t s2 = load_be32(in + 8) ^ round_keys_[2];
  std::uint32_t s3 = load_be32(in + 12) ^ round_keys_[3];

  for (int round = 1; round < kRounds; ++round) {
    const std::uint32_t* rk = &round_keys_[4 * round];
    const std::uint32_t t0 = tb.te[0][(s0 >> 24) & 0xff] ^ tb.te[1][(s1 >> 16) & 0xff] ^
                             tb.te[2][(s2 >> 8) & 0xff] ^ tb.te[3][s3 & 0xff] ^ rk[0];
    const std::uint32_t t1 = tb.te[0][(s1 >> 24) & 0xff] ^ tb.te[1][(s2 >> 16) & 0xff] ^
                             tb.te[2][(s3 >> 8) & 0xff] ^ tb.te[3][s0 & 0xff] ^ rk[1];
    const std::uint32_t t2 = tb.te[0][(s2 >> 24) & 0xff] ^ tb.te[1][(s3 >> 16) & 0xff] ^
                             tb.te[2][(s0 >> 8) & 0xff] ^ tb.te[3][s1 & 0xff] ^ rk[2];
    const std::uint32_t t3 = tb.te[0][(s3 >> 24) & 0xff] ^ tb.te[1][(s0 >> 16) & 0xff] ^
                             tb.te[2][(s1 >> 8) & 0xff] ^ tb.te[3][s2 & 0xff] ^ rk[3];
    s0 = t0;
    s1 = t1;
    s2 = t2;
    s3 = t3;
  }

  // Final round: SubBytes + ShiftRows + AddRoundKey (no MixColumns).
  const auto& sb = tb.sbox;
  const std::uint32_t* rk = &round_keys_[4 * kRounds];
  const std::uint32_t r0 = (static_cast<std::uint32_t>(sb[(s0 >> 24) & 0xff]) << 24) |
                           (static_cast<std::uint32_t>(sb[(s1 >> 16) & 0xff]) << 16) |
                           (static_cast<std::uint32_t>(sb[(s2 >> 8) & 0xff]) << 8) |
                           sb[s3 & 0xff];
  const std::uint32_t r1 = (static_cast<std::uint32_t>(sb[(s1 >> 24) & 0xff]) << 24) |
                           (static_cast<std::uint32_t>(sb[(s2 >> 16) & 0xff]) << 16) |
                           (static_cast<std::uint32_t>(sb[(s3 >> 8) & 0xff]) << 8) |
                           sb[s0 & 0xff];
  const std::uint32_t r2 = (static_cast<std::uint32_t>(sb[(s2 >> 24) & 0xff]) << 24) |
                           (static_cast<std::uint32_t>(sb[(s3 >> 16) & 0xff]) << 16) |
                           (static_cast<std::uint32_t>(sb[(s0 >> 8) & 0xff]) << 8) |
                           sb[s1 & 0xff];
  const std::uint32_t r3 = (static_cast<std::uint32_t>(sb[(s3 >> 24) & 0xff]) << 24) |
                           (static_cast<std::uint32_t>(sb[(s0 >> 16) & 0xff]) << 16) |
                           (static_cast<std::uint32_t>(sb[(s1 >> 8) & 0xff]) << 8) |
                           sb[s2 & 0xff];
  store_be32(out, r0 ^ rk[0]);
  store_be32(out + 4, r1 ^ rk[1]);
  store_be32(out + 8, r2 ^ rk[2]);
  store_be32(out + 12, r3 ^ rk[3]);
}

void Aes256::decrypt_block(const std::uint8_t in[kBlockBytes],
                           std::uint8_t out[kBlockBytes]) const {
  // Straightforward inverse cipher (test/verification path only).
  const auto& tb = tables();
  std::uint8_t state[16];
  std::memcpy(state, in, 16);

  auto add_round_key = [&](int round) {
    for (int c = 0; c < 4; ++c) {
      const std::uint32_t w = round_keys_[4 * round + c];
      state[4 * c + 0] ^= static_cast<std::uint8_t>(w >> 24);
      state[4 * c + 1] ^= static_cast<std::uint8_t>(w >> 16);
      state[4 * c + 2] ^= static_cast<std::uint8_t>(w >> 8);
      state[4 * c + 3] ^= static_cast<std::uint8_t>(w);
    }
  };
  auto inv_shift_rows = [&] {
    std::uint8_t t[16];
    std::memcpy(t, state, 16);
    for (int r = 1; r < 4; ++r) {
      for (int c = 0; c < 4; ++c) state[4 * ((c + r) % 4) + r] = t[4 * c + r];
    }
  };
  auto inv_sub_bytes = [&] {
    for (auto& b : state) b = tb.inv_sbox[b];
  };
  auto inv_mix_columns = [&] {
    for (int c = 0; c < 4; ++c) {
      std::uint8_t* col = &state[4 * c];
      const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
      col[0] = gf_mul(a0, 14) ^ gf_mul(a1, 11) ^ gf_mul(a2, 13) ^ gf_mul(a3, 9);
      col[1] = gf_mul(a0, 9) ^ gf_mul(a1, 14) ^ gf_mul(a2, 11) ^ gf_mul(a3, 13);
      col[2] = gf_mul(a0, 13) ^ gf_mul(a1, 9) ^ gf_mul(a2, 14) ^ gf_mul(a3, 11);
      col[3] = gf_mul(a0, 11) ^ gf_mul(a1, 13) ^ gf_mul(a2, 9) ^ gf_mul(a3, 14);
    }
  };

  add_round_key(kRounds);
  for (int round = kRounds - 1; round >= 1; --round) {
    inv_shift_rows();
    inv_sub_bytes();
    add_round_key(round);
    inv_mix_columns();
  }
  inv_shift_rows();
  inv_sub_bytes();
  add_round_key(0);
  std::memcpy(out, state, 16);
}

void aes256_ctr(const Aes256& cipher, std::span<const std::uint8_t, 16> counter,
                std::span<const std::uint8_t> in, std::span<std::uint8_t> out) {
  DHL_CHECK(out.size() >= in.size());
#ifdef DHL_AES_HAS_NI
  if (common::simd::enabled(common::simd::Isa::kAesni)) {
    aes256_ctr_aesni(cipher.round_key_bytes(), counter.data(), in.data(),
                     out.data(), in.size());
    return;
  }
#endif
  std::uint8_t ctr[16];
  std::memcpy(ctr, counter.data(), 16);
  std::uint8_t keystream[16];
  std::size_t off = 0;
  while (off < in.size()) {
    cipher.encrypt_block(ctr, keystream);
    const std::size_t n = std::min<std::size_t>(16, in.size() - off);
    for (std::size_t i = 0; i < n; ++i) out[off + i] = in[off + i] ^ keystream[i];
    off += n;
    inc_ctr_be128(ctr);
  }
}

}  // namespace dhl::crypto
