#include "dhl/crypto/md5.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "dhl/common/check.hpp"
#include "dhl/common/simd.hpp"

namespace dhl::crypto {

namespace {

namespace simd = common::simd;

constexpr std::size_t kBlock = Md5::kBlockBytes;
constexpr std::array<std::uint32_t, 4> kInitState = {
    0x67452301u, 0xefcdab89u, 0x98badcfeu, 0x10325476u};

// Per-step shift amounts (RFC 1321): group g's step j shifts by
// kShift[g][j % 4].
constexpr int kShift[4][4] = {
    {7, 12, 17, 22}, {5, 9, 14, 20}, {4, 11, 16, 23}, {6, 10, 15, 21}};

/// Message word of step j in group g: j, 1 + 5j, 5 + 3j, 7j (mod 16).
constexpr int msg_index(int g, int j) {
  constexpr int kStart[4] = {0, 1, 5, 0};
  constexpr int kStride[4] = {1, 5, 3, 7};
  return (kStart[g] + kStride[g] * j) % 16;
}

std::uint32_t rotl(std::uint32_t x, int n) { return (x << n) | (x >> (32 - n)); }

/// The group's round function, branch-free: F = d ^ (b & (c ^ d)),
/// G = c ^ (d & (b ^ c)), H = b ^ c ^ d, I = c ^ (b | ~d).
template <int G>
std::uint32_t round_fn(std::uint32_t b, std::uint32_t c, std::uint32_t d) {
  if constexpr (G == 0) return d ^ (b & (c ^ d));
  if constexpr (G == 1) return c ^ (d & (b ^ c));
  if constexpr (G == 2) return b ^ c ^ d;
  return c ^ (b | ~d);
}

/// Sixteen steps of group G; unrolled, so every constant is an immediate
/// and the role rotation of a, b, c, d is register renaming.
template <int G>
void md5_group(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c,
               std::uint32_t& d, const std::uint32_t m[16]) {
#pragma GCC unroll 16
  for (int j = 0; j < 16; ++j) {
    const std::uint32_t t =
        a + round_fn<G>(b, c, d) + Md5::kK[16 * G + j] + m[msg_index(G, j)];
    const std::uint32_t nb = b + rotl(t, kShift[G][j % 4]);
    a = d;
    d = c;
    c = b;
    b = nb;
  }
}

/// RFC 1321 compression of `nblocks` consecutive 64 B blocks (scalar
/// reference).
void md5_blocks(std::uint32_t state[4], const std::uint8_t* data,
                std::size_t nblocks) {
  for (; nblocks > 0; --nblocks, data += kBlock) {
    std::uint32_t m[16];
    std::memcpy(m, data, kBlock);
    if constexpr (std::endian::native == std::endian::big) {
      for (std::uint32_t& w : m) w = __builtin_bswap32(w);
    }
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    md5_group<0>(a, b, c, d, m);
    md5_group<1>(a, b, c, d, m);
    md5_group<2>(a, b, c, d, m);
    md5_group<3>(a, b, c, d, m);
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
  }
}

/// The final one or two blocks of a message whose last `tail_len` (< 64)
/// bytes are `tail`: tail, 0x80, zeros, then the 64-bit little-endian bit
/// count of all `total_bytes`.  Two blocks when the tail leaves fewer than 9
/// bytes free.  Returns the block count.
std::size_t pad_tail(std::uint8_t block[2 * kBlock], const std::uint8_t* tail,
                     std::size_t tail_len, std::uint64_t total_bytes) {
  std::memset(block, 0, 2 * kBlock);
  if (tail_len > 0) std::memcpy(block, tail, tail_len);
  block[tail_len] = 0x80;
  const std::size_t nblocks = tail_len < kBlock - 8 ? 1 : 2;
  const std::uint64_t bit_len = total_bytes * 8;
  std::uint8_t* len_le = block + nblocks * kBlock - 8;
  for (int i = 0; i < 8; ++i) {
    len_le[i] = static_cast<std::uint8_t>(bit_len >> (8 * i));
  }
  return nblocks;
}

void store_digest(const std::array<std::uint32_t, 4>& state,
                  std::uint8_t* out) {
  for (int i = 0; i < 4; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state[i]);
    out[4 * i + 1] = static_cast<std::uint8_t>(state[i] >> 8);
    out[4 * i + 2] = static_cast<std::uint8_t>(state[i] >> 16);
    out[4 * i + 3] = static_cast<std::uint8_t>(state[i] >> 24);
  }
}

#ifdef DHL_SIMD_X86

constexpr std::size_t kLanes = 8;
/// Messages one lane session takes at a time (fixed-size index scratch).
constexpr std::size_t kChunk = 64;

/// Blocks a message of `len` bytes compresses into, padding included.
constexpr std::size_t padded_blocks(std::size_t len) {
  return (len + 8) / kBlock + 1;
}

/// Transpose an 8x8 matrix of 32-bit words: row l (lane l's eight message
/// words) becomes column l, so r[w] holds word w of every lane.
__attribute__((target("avx2"))) inline void transpose8(__m256i r[8]) {
  const __m256i t0 = _mm256_unpacklo_epi32(r[0], r[1]);
  const __m256i t1 = _mm256_unpackhi_epi32(r[0], r[1]);
  const __m256i t2 = _mm256_unpacklo_epi32(r[2], r[3]);
  const __m256i t3 = _mm256_unpackhi_epi32(r[2], r[3]);
  const __m256i t4 = _mm256_unpacklo_epi32(r[4], r[5]);
  const __m256i t5 = _mm256_unpackhi_epi32(r[4], r[5]);
  const __m256i t6 = _mm256_unpacklo_epi32(r[6], r[7]);
  const __m256i t7 = _mm256_unpackhi_epi32(r[6], r[7]);
  const __m256i u0 = _mm256_unpacklo_epi64(t0, t2);
  const __m256i u1 = _mm256_unpackhi_epi64(t0, t2);
  const __m256i u2 = _mm256_unpacklo_epi64(t1, t3);
  const __m256i u3 = _mm256_unpackhi_epi64(t1, t3);
  const __m256i u4 = _mm256_unpacklo_epi64(t4, t6);
  const __m256i u5 = _mm256_unpackhi_epi64(t4, t6);
  const __m256i u6 = _mm256_unpacklo_epi64(t5, t7);
  const __m256i u7 = _mm256_unpackhi_epi64(t5, t7);
  r[0] = _mm256_permute2x128_si256(u0, u4, 0x20);
  r[1] = _mm256_permute2x128_si256(u1, u5, 0x20);
  r[2] = _mm256_permute2x128_si256(u2, u6, 0x20);
  r[3] = _mm256_permute2x128_si256(u3, u7, 0x20);
  r[4] = _mm256_permute2x128_si256(u0, u4, 0x31);
  r[5] = _mm256_permute2x128_si256(u1, u5, 0x31);
  r[6] = _mm256_permute2x128_si256(u2, u6, 0x31);
  r[7] = _mm256_permute2x128_si256(u3, u7, 0x31);
}

template <int G>
__attribute__((target("avx2"))) inline __m256i round_fn8(__m256i b, __m256i c,
                                                         __m256i d) {
  if constexpr (G == 0) {
    return _mm256_xor_si256(d, _mm256_and_si256(b, _mm256_xor_si256(c, d)));
  }
  if constexpr (G == 1) {
    return _mm256_xor_si256(c, _mm256_and_si256(d, _mm256_xor_si256(b, c)));
  }
  if constexpr (G == 2) {
    return _mm256_xor_si256(_mm256_xor_si256(b, c), d);
  }
  const __m256i not_d = _mm256_xor_si256(d, _mm256_set1_epi32(-1));
  return _mm256_xor_si256(c, _mm256_or_si256(b, not_d));
}

/// md5_group over eight lanes, one 32-bit lane per message.
template <int G>
__attribute__((target("avx2"))) inline void md5_group8(__m256i& a, __m256i& b,
                                                       __m256i& c, __m256i& d,
                                                       const __m256i m[16]) {
#pragma GCC unroll 16
  for (int j = 0; j < 16; ++j) {
    const __m256i k =
        _mm256_set1_epi32(static_cast<int>(Md5::kK[16 * G + j]));
    const __m256i t = _mm256_add_epi32(
        _mm256_add_epi32(a, round_fn8<G>(b, c, d)),
        _mm256_add_epi32(k, m[msg_index(G, j)]));
    const int s = kShift[G][j % 4];
    const __m256i nb = _mm256_add_epi32(
        b, _mm256_or_si256(_mm256_slli_epi32(t, s),
                           _mm256_srli_epi32(t, 32 - s)));
    a = d;
    d = c;
    c = b;
    b = nb;
  }
}

/// One compression step of eight lanes: lane l compresses the 64 B block at
/// block[l] into column l of `st` (st[0] = a of every lane, ...).  Each
/// block is loaded as two 32 B rows, and two 8x8 transposes turn the rows
/// into message-word vectors (no gathers).
__attribute__((target("avx2"))) inline void md5_step8(
    __m256i st[4], const std::uint8_t* const block[kLanes]) {
  __m256i m[16];
  for (std::size_t l = 0; l < kLanes; ++l) {
    m[l] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(block[l]));
    m[kLanes + l] =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(block[l] + 32));
  }
  transpose8(m);
  transpose8(m + kLanes);
  __m256i a = st[0], b = st[1], c = st[2], d = st[3];
  md5_group8<0>(a, b, c, d, m);
  md5_group8<1>(a, b, c, d, m);
  md5_group8<2>(a, b, c, d, m);
  md5_group8<3>(a, b, c, d, m);
  st[0] = _mm256_add_epi32(st[0], a);
  st[1] = _mm256_add_epi32(st[1], b);
  st[2] = _mm256_add_epi32(st[2], c);
  st[3] = _mm256_add_epi32(st[3], d);
}

/// One lane of the multi-buffer kernel: the message it is hashing, how many
/// of its blocks are done, and its padded tail.
struct Lane {
  static constexpr std::size_t kIdle = ~std::size_t{0};
  std::size_t msg = kIdle;  ///< index into msgs, or kIdle
  const std::uint8_t* data = nullptr;
  std::size_t full = 0;     ///< whole 64 B blocks read from `data`
  std::size_t blocks = 0;   ///< full + the one or two tail blocks
  std::size_t done = 0;     ///< blocks compressed so far
  alignas(32) std::uint8_t tail[2 * kBlock];

  const std::uint8_t* block(std::size_t i) const {
    return i < full ? data + i * kBlock : tail + (i - full) * kBlock;
  }
};

/// Multi-buffer MD5: eight lanes, each hashing one message.  A lane reads
/// its message's whole blocks in place, then its padded tail; when it
/// finishes it writes its digest and takes the next message.  Between
/// refills the kernel runs as many steps as the shortest live lane has
/// blocks left.  Messages are handed out longest first, so a long message
/// does not start late and run on alone; an idle lane compresses a zero
/// block whose state nobody reads.  Once one lane is live and no message is
/// left to hand out, the scalar rounds finish it: one scalar block costs
/// less than an 8-lane step.
__attribute__((target("avx2"))) void md5_many_avx2(
    std::span<const std::span<const std::uint8_t>> msgs,
    std::span<Md5::Digest> out) {
  alignas(32) static constexpr std::uint8_t kZeroBlock[kBlock] = {};
  for (std::size_t base = 0; base < msgs.size(); base += kChunk) {
    const std::size_t n = std::min(kChunk, msgs.size() - base);

    // Stable insertion sort of the chunk's indices by block count,
    // longest first.
    std::size_t order[kChunk];
    std::size_t nblocks[kChunk];
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t blocks = padded_blocks(msgs[base + i].size());
      std::size_t at = i;
      for (; at > 0 && nblocks[at - 1] < blocks; --at) {
        order[at] = order[at - 1];
        nblocks[at] = nblocks[at - 1];
      }
      order[at] = base + i;
      nblocks[at] = blocks;
    }

    Lane lanes[kLanes];
    alignas(32) std::uint32_t st[4][kLanes];
    std::size_t next = 0;
    std::size_t live = 0;
    auto refill = [&](std::size_t l) {
      Lane& lane = lanes[l];
      if (next == n) {
        lane.msg = Lane::kIdle;
        return;
      }
      lane.msg = order[next++];
      const std::span<const std::uint8_t> msg = msgs[lane.msg];
      lane.data = msg.data();
      lane.full = msg.size() / kBlock;
      lane.blocks =
          lane.full + pad_tail(lane.tail, msg.data() + lane.full * kBlock,
                               msg.size() % kBlock, msg.size());
      lane.done = 0;
      for (int w = 0; w < 4; ++w) st[w][l] = kInitState[w];
      ++live;
    };
    for (std::size_t l = 0; l < kLanes; ++l) refill(l);

    // While a message is left to hand out every lane is live, so one live
    // lane means the run is ending: the loop below finishes it.
    while (live > 1) {
      std::size_t steps = ~std::size_t{0};
      for (const Lane& lane : lanes) {
        if (lane.msg != Lane::kIdle) {
          steps = std::min(steps, lane.blocks - lane.done);
        }
      }
      __m256i v[4];
      for (int w = 0; w < 4; ++w) {
        v[w] = _mm256_load_si256(reinterpret_cast<const __m256i*>(st[w]));
      }
      for (std::size_t s = 0; s < steps; ++s) {
        const std::uint8_t* block[kLanes];
        for (std::size_t l = 0; l < kLanes; ++l) {
          const Lane& lane = lanes[l];
          block[l] = lane.msg == Lane::kIdle ? kZeroBlock
                                             : lane.block(lane.done + s);
        }
        md5_step8(v, block);
      }
      for (int w = 0; w < 4; ++w) {
        _mm256_store_si256(reinterpret_cast<__m256i*>(st[w]), v[w]);
      }
      for (std::size_t l = 0; l < kLanes; ++l) {
        Lane& lane = lanes[l];
        if (lane.msg == Lane::kIdle) continue;
        lane.done += steps;
        if (lane.done < lane.blocks) continue;
        store_digest({st[0][l], st[1][l], st[2][l], st[3][l]},
                     out[lane.msg].data());
        --live;
        refill(l);
      }
    }
    for (std::size_t l = 0; l < kLanes && live > 0; ++l) {
      const Lane& lane = lanes[l];
      if (lane.msg == Lane::kIdle) continue;
      std::array<std::uint32_t, 4> state = {st[0][l], st[1][l], st[2][l],
                                            st[3][l]};
      for (std::size_t i = lane.done; i < lane.blocks; ++i) {
        md5_blocks(state.data(), lane.block(i), 1);
      }
      store_digest(state, out[lane.msg].data());
      --live;
    }
  }
}

#endif  // DHL_SIMD_X86

}  // namespace

void Md5::reset() {
  state_ = kInitState;
  buffered_ = 0;
  total_bytes_ = 0;
}

void Md5::update(std::span<const std::uint8_t> data) {
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
    md5_blocks(state_.data(), buffer_.data(), 1);
    buffered_ = 0;
  }
  const std::size_t blocks = n / kBlock;
  md5_blocks(state_.data(), p, blocks);
  p += blocks * kBlock;
  n -= blocks * kBlock;
  if (n > 0) {
    std::memcpy(buffer_.data(), p, n);
    buffered_ = n;
  }
}

void Md5::finish(std::span<std::uint8_t, kDigestBytes> out) {
  std::uint8_t block[2 * kBlock];
  md5_blocks(state_.data(), block,
             pad_tail(block, buffer_.data(), buffered_, total_bytes_));
  store_digest(state_, out.data());
}

Md5::Digest Md5::digest(std::span<const std::uint8_t> data) {
  Md5 m;
  m.update(data);
  Digest out{};
  m.finish(out);
  return out;
}

void Md5::digest_many(std::span<const std::span<const std::uint8_t>> msgs,
                      std::span<Digest> out) {
  DHL_CHECK(out.size() >= msgs.size());
#ifdef DHL_SIMD_X86
  // The guard must match the "md5" row of simd::kernel_report().
  if (msgs.size() >= 2 && simd::enabled(simd::Isa::kAvx2)) {
    md5_many_avx2(msgs, out);
    return;
  }
#endif
  for (std::size_t i = 0; i < msgs.size(); ++i) out[i] = digest(msgs[i]);
}

}  // namespace dhl::crypto
