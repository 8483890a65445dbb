#pragma once

// Additional standard accelerator modules from the paper's module database
// (section IV-C lists "Encryption, Decryption, MD5 authentication, Regex
// Classifier, Data Compression" as examples).  These are not benchmarked in
// the paper's evaluation; their resource/timing figures are our own
// plausible characterizations, marked as such in DESIGN.md.

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dhl/crypto/aes.hpp"
#include "dhl/crypto/md5.hpp"
#include "dhl/fpga/accelerator.hpp"
#include "dhl/fpga/bitstream.hpp"

namespace dhl::accel {

/// md5-auth: computes the MD5 digest of the packet's L4 payload (the whole
/// record when it does not parse as a packet) and returns the first 8
/// digest bytes in the result word (little-endian).
class Md5Module final : public fpga::AcceleratorModule {
 public:
  const std::string& name() const override {
    static const std::string kName = "md5-auth";
    return kName;
  }
  fpga::ModuleResources resources() const override { return {4'100, 36}; }
  fpga::ModuleTiming timing() const override {
    return {Bandwidth::gbps(48.0), 68};
  }
  void configure(std::span<const std::uint8_t> config) override;
  /// One-record process_batch().
  fpga::ProcessResult process(std::span<std::uint8_t> data) override;
  /// Hashes the run's payloads side by side (crypto::Md5::digest_many).
  /// The module never rewrites bytes, so the result word is its whole
  /// observable effect.
  void process_batch(std::span<const std::span<std::uint8_t>> datas,
                     std::span<fpga::ProcessResult> out) override;

 private:
  /// Scratch reused across calls, so a steady-state run allocates nothing.
  std::vector<std::span<const std::uint8_t>> payloads_;
  std::vector<crypto::Md5::Digest> digests_;
};

/// compression: LZ77-compresses the record in place when that shrinks it.
/// Result word: original length when compressed, kIncompressible otherwise.
class CompressionModule final : public fpga::AcceleratorModule {
 public:
  static constexpr std::uint64_t kIncompressible = ~0ULL;

  const std::string& name() const override {
    static const std::string kName = "compression";
    return kName;
  }
  fpga::ModuleResources resources() const override { return {11'800, 96}; }
  fpga::ModuleTiming timing() const override {
    return {Bandwidth::gbps(24.0), 180};
  }
  void configure(std::span<const std::uint8_t> config) override;
  fpga::ProcessResult process(std::span<std::uint8_t> data) override;
};

/// aes256-ctr: raw AES-256-CTR over the whole record payload, the crypto
/// half of the lz77 -> AES "CompNcrypt" fused chain (SNIPPETS.md) and of
/// the md5-auth -> AES chain.  Unlike ipsec-crypto it has no ESP framing:
/// whatever bytes arrive are XORed with the keystream, so it composes
/// behind any payload-shrinking stage.  CTR is an involution -- the same
/// configuration decrypts.
class Aes256CtrModule final : public fpga::AcceleratorModule {
 public:
  static constexpr std::uint64_t kOk = 0;
  static constexpr std::uint64_t kNotConfigured = 3;

  const std::string& name() const override {
    static const std::string kName = "aes256-ctr";
    return kName;
  }
  fpga::ModuleResources resources() const override { return {7'900, 210}; }
  fpga::ModuleTiming timing() const override {
    // The ipsec-crypto cipher pipeline without the HMAC lane.
    return {Bandwidth::gbps(70.0), 96};
  }
  /// Blob layout: key[32] | iv[16] (the initial counter block).  The IV is
  /// per-configuration, not per-record -- a deliberate simulation
  /// simplification that keeps fused-vs-per-stage runs bit-comparable.
  void configure(std::span<const std::uint8_t> config) override;
  fpga::ProcessResult process(std::span<std::uint8_t> data) override;

  bool configured() const { return state_.has_value(); }

 private:
  struct State {
    crypto::Aes256 cipher;
    std::array<std::uint8_t, 16> iv{};
  };
  std::optional<State> state_;
};

/// Build the aes256-ctr configuration blob.
std::vector<std::uint8_t> aes256_ctr_module_config(
    std::span<const std::uint8_t, 32> key, std::span<const std::uint8_t, 16> iv);
/// Deterministic key/IV blob for tests and benches.
std::vector<std::uint8_t> aes256_ctr_test_config();

fpga::PartialBitstream md5_bitstream();
fpga::PartialBitstream compression_bitstream();
fpga::PartialBitstream aes256_ctr_bitstream();

}  // namespace dhl::accel
