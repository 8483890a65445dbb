#include "dhl/crypto/md5.hpp"

#include <cmath>
#include <cstring>

namespace dhl::crypto {

namespace {

std::uint32_t rotl(std::uint32_t x, int n) { return (x << n) | (x >> (32 - n)); }

// Per-round shift amounts (RFC 1321).
constexpr int kShifts[64] = {
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
    5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20,
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21};

// K[i] = floor(2^32 * |sin(i+1)|), computed once instead of transcribed.
const std::array<std::uint32_t, 64>& sine_table() {
  static const std::array<std::uint32_t, 64> k = [] {
    std::array<std::uint32_t, 64> t{};
    for (int i = 0; i < 64; ++i) {
      t[i] = static_cast<std::uint32_t>(
          std::floor(std::abs(std::sin(static_cast<double>(i + 1))) * 4294967296.0));
    }
    return t;
  }();
  return k;
}

}  // namespace

void Md5::reset() {
  state_ = {0x67452301u, 0xefcdab89u, 0x98badcfeu, 0x10325476u};
  buffered_ = 0;
  total_bytes_ = 0;
}

void Md5::process_block(const std::uint8_t block[kBlockBytes]) {
  const auto& K = sine_table();
  std::uint32_t m[16];
  for (int i = 0; i < 16; ++i) {
    m[i] = static_cast<std::uint32_t>(block[4 * i]) |
           (static_cast<std::uint32_t>(block[4 * i + 1]) << 8) |
           (static_cast<std::uint32_t>(block[4 * i + 2]) << 16) |
           (static_cast<std::uint32_t>(block[4 * i + 3]) << 24);
  }
  std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
  for (int i = 0; i < 64; ++i) {
    std::uint32_t f;
    int g;
    if (i < 16) {
      f = (b & c) | (~b & d);
      g = i;
    } else if (i < 32) {
      f = (d & b) | (~d & c);
      g = (5 * i + 1) % 16;
    } else if (i < 48) {
      f = b ^ c ^ d;
      g = (3 * i + 5) % 16;
    } else {
      f = c ^ (b | ~d);
      g = (7 * i) % 16;
    }
    const std::uint32_t temp = d;
    d = c;
    c = b;
    b = b + rotl(a + f + K[i] + m[g], kShifts[i]);
    a = temp;
  }
  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
}

void Md5::update(std::span<const std::uint8_t> data) {
  total_bytes_ += data.size();
  std::size_t off = 0;
  if (buffered_ > 0) {
    const std::size_t take = std::min(kBlockBytes - buffered_, data.size());
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    off = take;
    if (buffered_ == kBlockBytes) {
      process_block(buffer_.data());
      buffered_ = 0;
    }
  }
  while (off + kBlockBytes <= data.size()) {
    process_block(data.data() + off);
    off += kBlockBytes;
  }
  if (off < data.size()) {
    std::memcpy(buffer_.data(), data.data() + off, data.size() - off);
    buffered_ = data.size() - off;
  }
}

void Md5::finish(std::span<std::uint8_t, kDigestBytes> out) {
  // The final one or two blocks in one go: tail, 0x80, zeros, then the
  // 64-bit little-endian bit count.  Two blocks when the tail leaves fewer
  // than 9 bytes free.
  std::uint8_t block[2 * kBlockBytes] = {};
  if (buffered_ > 0) std::memcpy(block, buffer_.data(), buffered_);
  block[buffered_] = 0x80;
  const std::size_t nblocks = buffered_ < kBlockBytes - 8 ? 1 : 2;
  const std::uint64_t bit_len = total_bytes_ * 8;
  std::uint8_t* len_le = block + nblocks * kBlockBytes - 8;
  for (int i = 0; i < 8; ++i) {
    len_le[i] = static_cast<std::uint8_t>(bit_len >> (8 * i));
  }
  for (std::size_t b = 0; b < nblocks; ++b) {
    process_block(block + b * kBlockBytes);
  }
  for (int i = 0; i < 4; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state_[i]);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i] >> 24);
  }
}

std::array<std::uint8_t, Md5::kDigestBytes> Md5::digest(
    std::span<const std::uint8_t> data) {
  Md5 m;
  m.update(data);
  std::array<std::uint8_t, kDigestBytes> out{};
  m.finish(out);
  return out;
}

}  // namespace dhl::crypto
