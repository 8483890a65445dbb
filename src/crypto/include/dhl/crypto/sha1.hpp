#pragma once

// SHA-1 and HMAC-SHA1, implemented from scratch (FIPS 180-4 / RFC 2104).
//
// HMAC-SHA1 is the authentication half of the paper's IPsec configuration
// ("AES-CTR for cipher and SHA1-HMAC for authentication", Table I).  IPsec
// uses HMAC-SHA1-96: the digest is truncated to the first 12 bytes.
//
// Every compression goes through one block kernel in sha1.cpp: a scalar
// reference and a SHA-NI variant, reported as kernel "sha1" by
// simd::kernel_report().  SHA-NI runs when the ISA cap permits sse42 and
// the host has the SHA extensions; DHL_SIMD=scalar forces the reference.
//
// Verified against FIPS 180-4 and RFC 2202 vectors in tests.

#include <array>
#include <cstdint>
#include <span>

namespace dhl::crypto {

class Sha1 {
 public:
  static constexpr std::size_t kDigestBytes = 20;
  static constexpr std::size_t kBlockBytes = 64;
  using State = std::array<std::uint32_t, 5>;

  Sha1() { reset(); }

  void reset();
  void update(std::span<const std::uint8_t> data);
  /// Finalize into `out`.  The object must be reset() before reuse.
  void finish(std::span<std::uint8_t, kDigestBytes> out);

  /// One-shot convenience.
  static std::array<std::uint8_t, kDigestBytes> digest(
      std::span<const std::uint8_t> data);

 private:
  State h_{};
  std::array<std::uint8_t, kBlockBytes> buffer_{};
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
};

/// HMAC-SHA1 keyed MAC.  The constructor compresses the ipad and opad key
/// blocks once and keeps only the two resulting chaining states, so a MAC
/// of an n-byte message costs ceil((n + 9) / 64) inner compressions plus
/// one outer compression (3 in all for a 64 B message).
class HmacSha1 {
 public:
  static constexpr std::size_t kDigestBytes = Sha1::kDigestBytes;
  /// IPsec HMAC-SHA1-96 truncation length (RFC 2404).
  static constexpr std::size_t kIpsecIcvBytes = 12;

  explicit HmacSha1(std::span<const std::uint8_t> key);

  /// Full 20-byte MAC of `data`.
  std::array<std::uint8_t, kDigestBytes> mac(
      std::span<const std::uint8_t> data) const;

  /// Compute and write the 96-bit truncated ICV used by ESP.
  void icv96(std::span<const std::uint8_t> data,
             std::span<std::uint8_t, kIpsecIcvBytes> out) const;

  /// Constant-time verification of a 96-bit ICV.
  bool verify96(std::span<const std::uint8_t> data,
                std::span<const std::uint8_t, kIpsecIcvBytes> icv) const;

 private:
  Sha1::State inner_{};  ///< state after compressing key ^ ipad
  Sha1::State outer_{};  ///< state after compressing key ^ opad
};

}  // namespace dhl::crypto
