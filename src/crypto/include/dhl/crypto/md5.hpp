#pragma once

// MD5 (RFC 1321), from scratch.
//
// The paper's accelerator-module database lists "MD5 authentication" as one
// of the standard library modules (section IV-C); we implement it so the
// module catalog has real functionality behind it.  Not for new security
// designs -- it exists because the paper's library contains it.
//
// Every single-message compression runs the scalar reference rounds.
// digest_many() hashes a run of messages side by side: an AVX2 multi-buffer
// kernel (eight messages per step, intel-ipsec-mb's technique for a hash
// that is serial within one message), reported as kernel "md5" by
// simd::kernel_report().  DHL_SIMD=scalar forces the reference.
//
// Verified against RFC 1321 vectors in tests.

#include <array>
#include <cstdint>
#include <span>

namespace dhl::crypto {

class Md5 {
 public:
  static constexpr std::size_t kDigestBytes = 16;
  static constexpr std::size_t kBlockBytes = 64;
  using Digest = std::array<std::uint8_t, kDigestBytes>;

  /// Round constants K[i] = floor(2^32 * |sin(i + 1)|) (RFC 1321), shared by
  /// the scalar and vector rounds.
  static constexpr std::array<std::uint32_t, 64> kK = {
      0xd76aa478u, 0xe8c7b756u, 0x242070dbu, 0xc1bdceeeu, 0xf57c0fafu,
      0x4787c62au, 0xa8304613u, 0xfd469501u, 0x698098d8u, 0x8b44f7afu,
      0xffff5bb1u, 0x895cd7beu, 0x6b901122u, 0xfd987193u, 0xa679438eu,
      0x49b40821u, 0xf61e2562u, 0xc040b340u, 0x265e5a51u, 0xe9b6c7aau,
      0xd62f105du, 0x02441453u, 0xd8a1e681u, 0xe7d3fbc8u, 0x21e1cde6u,
      0xc33707d6u, 0xf4d50d87u, 0x455a14edu, 0xa9e3e905u, 0xfcefa3f8u,
      0x676f02d9u, 0x8d2a4c8au, 0xfffa3942u, 0x8771f681u, 0x6d9d6122u,
      0xfde5380cu, 0xa4beea44u, 0x4bdecfa9u, 0xf6bb4b60u, 0xbebfbc70u,
      0x289b7ec6u, 0xeaa127fau, 0xd4ef3085u, 0x04881d05u, 0xd9d4d039u,
      0xe6db99e5u, 0x1fa27cf8u, 0xc4ac5665u, 0xf4292244u, 0x432aff97u,
      0xab9423a7u, 0xfc93a039u, 0x655b59c3u, 0x8f0ccc92u, 0xffeff47du,
      0x85845dd1u, 0x6fa87e4fu, 0xfe2ce6e0u, 0xa3014314u, 0x4e0811a1u,
      0xf7537e82u, 0xbd3af235u, 0x2ad7d2bbu, 0xeb86d391u};

  Md5() { reset(); }

  void reset();
  void update(std::span<const std::uint8_t> data);
  void finish(std::span<std::uint8_t, kDigestBytes> out);

  static Digest digest(std::span<const std::uint8_t> data);

  /// out[i] = digest(msgs[i]) for every message (out.size() >=
  /// msgs.size()).  With two or more messages and the avx2 cap it runs the
  /// multi-buffer kernel; otherwise it calls digest() per message.
  /// Allocation-free.
  static void digest_many(std::span<const std::span<const std::uint8_t>> msgs,
                          std::span<Digest> out);

 private:
  std::array<std::uint32_t, 4> state_{};
  std::array<std::uint8_t, kBlockBytes> buffer_{};
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
};

}  // namespace dhl::crypto
