#include "dhl/crypto/sha1.hpp"

#include <algorithm>
#include <cstring>

#include "dhl/common/simd.hpp"

namespace dhl::crypto {

namespace {

namespace simd = common::simd;

constexpr std::size_t kBlock = Sha1::kBlockBytes;
constexpr Sha1::State kInitState = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu,
                                    0x10325476u, 0xC3D2E1F0u};

std::uint32_t rotl(std::uint32_t x, int n) { return (x << n) | (x >> (32 - n)); }

/// FIPS 180-4 compression of `nblocks` consecutive 64 B blocks (scalar
/// reference).
void sha1_blocks_scalar(std::uint32_t state[5], const std::uint8_t* data,
                        std::size_t nblocks) {
  for (; nblocks > 0; --nblocks, data += kBlock) {
    std::uint32_t w[80];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(data[4 * i]) << 24) |
             (static_cast<std::uint32_t>(data[4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(data[4 * i + 2]) << 8) |
             data[4 * i + 3];
    }
    for (int i = 16; i < 80; ++i) {
      w[i] = rotl(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3],
                  e = state[4];
    for (int i = 0; i < 80; ++i) {
      std::uint32_t f, k;
      if (i < 20) {
        f = (b & c) | (~b & d);
        k = 0x5A827999u;
      } else if (i < 40) {
        f = b ^ c ^ d;
        k = 0x6ED9EBA1u;
      } else if (i < 60) {
        f = (b & c) | (b & d) | (c & d);
        k = 0x8F1BBCDCu;
      } else {
        f = b ^ c ^ d;
        k = 0xCA62C1D6u;
      }
      const std::uint32_t temp = rotl(a, 5) + f + e + k + w[i];
      e = d;
      d = c;
      c = rotl(b, 30);
      b = a;
      a = temp;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
  }
}

#ifdef DHL_SIMD_X86

/// Four big-endian message words, W[0] in the top lane where sha1rnds4
/// expects it: reversing all 16 bytes swaps the words' bytes and order.
__attribute__((target("sha,sse4.1"))) inline __m128i load_words(
    const std::uint8_t* p) {
  const __m128i reverse =
      _mm_set_epi64x(0x0001020304050607ll, 0x08090a0b0c0d0e0fll);
  return _mm_shuffle_epi8(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)), reverse);
}

/// The same compression on the SHA extensions.  ABCD lives in one register
/// (A in the top lane); E rides in the top lane of E0/E1, which alternate as
/// sha1nexte's input and the saved ABCD for the next four rounds.  Each
/// four-round group also advances the message schedule: sha1msg1, an xor
/// and sha1msg2 turn W[t-16..t-3] into the next four words, three groups
/// ahead of their use.  Loads are unaligned: callers hash packet bytes in
/// place.
__attribute__((target("sha,sse4.1"))) void sha1_blocks_shani(
    std::uint32_t state[5], const std::uint8_t* data, std::size_t nblocks) {
  __m128i abcd = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0x1B);
  __m128i e0 = _mm_set_epi32(static_cast<int>(state[4]), 0, 0, 0);

  for (; nblocks > 0; --nblocks, data += kBlock) {
    const __m128i abcd_save = abcd;
    const __m128i e0_save = e0;

    // Rounds 0-15: the first four groups load W[0..15].
    __m128i m0 = load_words(data + 0);
    e0 = _mm_add_epi32(e0, m0);
    __m128i e1 = abcd;
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 0);

    __m128i m1 = load_words(data + 16);
    e1 = _mm_sha1nexte_epu32(e1, m1);
    e0 = abcd;
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 0);
    m0 = _mm_sha1msg1_epu32(m0, m1);

    __m128i m2 = load_words(data + 32);
    e0 = _mm_sha1nexte_epu32(e0, m2);
    e1 = abcd;
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 0);
    m1 = _mm_sha1msg1_epu32(m1, m2);
    m0 = _mm_xor_si128(m0, m2);

    __m128i m3 = load_words(data + 48);
    e1 = _mm_sha1nexte_epu32(e1, m3);
    e0 = abcd;
    m0 = _mm_sha1msg2_epu32(m0, m3);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 0);
    m2 = _mm_sha1msg1_epu32(m2, m3);
    m1 = _mm_xor_si128(m1, m3);

    // Rounds 16-63: the steady state.  Group g consumes W in m[g % 4],
    // finishes m[(g + 1) % 4], xors into m[(g + 2) % 4] and starts
    // m[(g + 3) % 4].  `ein` carries E into this group's rounds, `eout`
    // saves ABCD as the next group's E.
#define DHL_SHA1_GROUP(ein, eout, cur, next, mid, far, fn) \
  ein = _mm_sha1nexte_epu32(ein, cur);                      \
  eout = abcd;                                              \
  next = _mm_sha1msg2_epu32(next, cur);                     \
  abcd = _mm_sha1rnds4_epu32(abcd, ein, fn);                \
  far = _mm_sha1msg1_epu32(far, cur);                       \
  mid = _mm_xor_si128(mid, cur)

    DHL_SHA1_GROUP(e0, e1, m0, m1, m2, m3, 0);  // 16-19
    DHL_SHA1_GROUP(e1, e0, m1, m2, m3, m0, 1);  // 20-23
    DHL_SHA1_GROUP(e0, e1, m2, m3, m0, m1, 1);  // 24-27
    DHL_SHA1_GROUP(e1, e0, m3, m0, m1, m2, 1);  // 28-31
    DHL_SHA1_GROUP(e0, e1, m0, m1, m2, m3, 1);  // 32-35
    DHL_SHA1_GROUP(e1, e0, m1, m2, m3, m0, 1);  // 36-39
    DHL_SHA1_GROUP(e0, e1, m2, m3, m0, m1, 2);  // 40-43
    DHL_SHA1_GROUP(e1, e0, m3, m0, m1, m2, 2);  // 44-47
    DHL_SHA1_GROUP(e0, e1, m0, m1, m2, m3, 2);  // 48-51
    DHL_SHA1_GROUP(e1, e0, m1, m2, m3, m0, 2);  // 52-55
    DHL_SHA1_GROUP(e0, e1, m2, m3, m0, m1, 2);  // 56-59
    DHL_SHA1_GROUP(e1, e0, m3, m0, m1, m2, 3);  // 60-63
    DHL_SHA1_GROUP(e0, e1, m0, m1, m2, m3, 3);  // 64-67
#undef DHL_SHA1_GROUP

    // Rounds 68-79: the schedule winds down (W[76..79] is the last word).
    e1 = _mm_sha1nexte_epu32(e1, m1);
    e0 = abcd;
    m2 = _mm_sha1msg2_epu32(m2, m1);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 3);
    m3 = _mm_xor_si128(m3, m1);

    e0 = _mm_sha1nexte_epu32(e0, m2);
    e1 = abcd;
    m3 = _mm_sha1msg2_epu32(m3, m2);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 3);

    e1 = _mm_sha1nexte_epu32(e1, m3);
    e0 = abcd;
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 3);

    // Feed-forward: E via sha1nexte (it rotates the saved A by 30 first,
    // which is how E0 tracks E), ABCD by a plain add.
    e0 = _mm_sha1nexte_epu32(e0, e0_save);
    abcd = _mm_add_epi32(abcd, abcd_save);
  }

  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_shuffle_epi32(abcd, 0x1B));
  state[4] = static_cast<std::uint32_t>(_mm_extract_epi32(e0, 3));
}

#endif  // DHL_SIMD_X86

/// The one block kernel.  Its guard must match the "sha1" row of
/// simd::kernel_report(): the sse42 cap plus host_has_sha().
void sha1_blocks(std::uint32_t state[5], const std::uint8_t* data,
                 std::size_t nblocks) {
  if (nblocks == 0) return;
#ifdef DHL_SIMD_X86
  if (simd::enabled(simd::Isa::kSse42) && simd::host_has_sha()) {
    sha1_blocks_shani(state, data, nblocks);
    return;
  }
#endif
  sha1_blocks_scalar(state, data, nblocks);
}

/// Pad and compress the message's last `tail_len` (< 64) bytes in one kernel
/// call: tail, 0x80, zeros, then the 64-bit big-endian bit count of all
/// `total_bytes`.  That is one block, or two when the tail leaves fewer than
/// 9 bytes free.
void sha1_final(std::uint32_t state[5], const std::uint8_t* tail,
                std::size_t tail_len, std::uint64_t total_bytes) {
  std::uint8_t block[2 * kBlock] = {};
  if (tail_len > 0) std::memcpy(block, tail, tail_len);
  block[tail_len] = 0x80;
  const std::size_t nblocks = tail_len < kBlock - 8 ? 1 : 2;
  const std::uint64_t bit_len = total_bytes * 8;
  std::uint8_t* len_be = block + nblocks * kBlock - 8;
  for (int i = 0; i < 8; ++i) {
    len_be[i] = static_cast<std::uint8_t>(bit_len >> (8 * (7 - i)));
  }
  sha1_blocks(state, block, nblocks);
}

void store_digest(const Sha1::State& h, std::uint8_t* out) {
  for (int i = 0; i < 5; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(h[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(h[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(h[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(h[i]);
  }
}

}  // namespace

void Sha1::reset() {
  h_ = kInitState;
  buffered_ = 0;
  total_bytes_ = 0;
}

void Sha1::update(std::span<const std::uint8_t> data) {
  if (data.empty()) return;
  total_bytes_ += data.size();
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  if (buffered_ > 0) {
    const std::size_t take = std::min(kBlock - buffered_, n);
    std::memcpy(buffer_.data() + buffered_, p, take);
    buffered_ += take;
    p += take;
    n -= take;
    if (buffered_ < kBlock) return;
    sha1_blocks(h_.data(), buffer_.data(), 1);
    buffered_ = 0;
  }
  const std::size_t blocks = n / kBlock;
  sha1_blocks(h_.data(), p, blocks);
  p += blocks * kBlock;
  n -= blocks * kBlock;
  if (n > 0) {
    std::memcpy(buffer_.data(), p, n);
    buffered_ = n;
  }
}

void Sha1::finish(std::span<std::uint8_t, kDigestBytes> out) {
  sha1_final(h_.data(), buffer_.data(), buffered_, total_bytes_);
  store_digest(h_, out.data());
}

std::array<std::uint8_t, Sha1::kDigestBytes> Sha1::digest(
    std::span<const std::uint8_t> data) {
  Sha1 s;
  s.update(data);
  std::array<std::uint8_t, kDigestBytes> out{};
  s.finish(out);
  return out;
}

HmacSha1::HmacSha1(std::span<const std::uint8_t> key) {
  std::array<std::uint8_t, kBlock> k{};
  if (key.size() > kBlock) {
    const auto d = Sha1::digest(key);
    std::memcpy(k.data(), d.data(), d.size());
  } else if (!key.empty()) {
    std::memcpy(k.data(), key.data(), key.size());
  }
  // The chaining state after the one padded-key block.
  auto midstate = [&k](std::uint8_t pad) {
    std::array<std::uint8_t, kBlock> block{};
    for (std::size_t i = 0; i < kBlock; ++i) {
      block[i] = static_cast<std::uint8_t>(k[i] ^ pad);
    }
    Sha1::State h = kInitState;
    sha1_blocks(h.data(), block.data(), 1);
    return h;
  };
  inner_ = midstate(0x36);
  outer_ = midstate(0x5c);
}

std::array<std::uint8_t, HmacSha1::kDigestBytes> HmacSha1::mac(
    std::span<const std::uint8_t> data) const {
  // Inner hash: H(key ^ ipad || data), resumed after the ipad block, so the
  // length it pads with counts that block too.
  Sha1::State h = inner_;
  const std::size_t full = data.size() / kBlock;
  sha1_blocks(h.data(), data.data(), full);
  sha1_final(h.data(), data.data() + full * kBlock, data.size() % kBlock,
             kBlock + data.size());
  std::array<std::uint8_t, kDigestBytes> inner_digest{};
  store_digest(h, inner_digest.data());

  // Outer hash: H(key ^ opad || inner digest), one padded block.
  h = outer_;
  sha1_final(h.data(), inner_digest.data(), kDigestBytes,
             kBlock + kDigestBytes);
  std::array<std::uint8_t, kDigestBytes> out{};
  store_digest(h, out.data());
  return out;
}

void HmacSha1::icv96(std::span<const std::uint8_t> data,
                     std::span<std::uint8_t, kIpsecIcvBytes> out) const {
  const auto full = mac(data);
  std::memcpy(out.data(), full.data(), kIpsecIcvBytes);
}

bool HmacSha1::verify96(
    std::span<const std::uint8_t> data,
    std::span<const std::uint8_t, kIpsecIcvBytes> icv) const {
  const auto full = mac(data);
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < kIpsecIcvBytes; ++i) diff |= full[i] ^ icv[i];
  return diff == 0;
}

}  // namespace dhl::crypto
