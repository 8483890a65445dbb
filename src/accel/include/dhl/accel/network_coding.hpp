#pragma once

// GF(2^8) network-coding module family: RLNC over a systematic sliding
// window (DESIGN.md section 3.7).
//
// Three accelerator modules share one record grammar, so the same blocks
// can be encoded on the fabric, recoded at a relay, and decoded back --
// with bit-exact equality against the CPU path (the modules ARE the CPU
// path, called inline by CPU NF stages or fallbacks, exactly like
// pattern-matching):
//
//   nc-encode   window source symbols in  -> one coded packet out
//   nc-recode   k received coded rows in  -> one recoded packet out
//   nc-decode   k >= window coded rows in -> the decoded source block out
//
// Every record leads with an 8-byte NcHeader; a "row" is a coefficient
// vector (window bytes) followed by the symbol payload.  Coefficients are
// drawn deterministically from the header's seed (Xoshiro256), so a host
// can reproduce any draw and runs replay bit-for-bit.  All GF math flows
// through common/gf256.hpp, whose addmul kernel is SIMD-dispatched.
//
// Sizing: windows are capped at kMaxWindow so a full decode record
// (window rows of window + sym_len bytes) stays under the 6 KB DMA record
// budget at the symbol sizes the NFs use.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dhl/fpga/accelerator.hpp"
#include "dhl/fpga/bitstream.hpp"

namespace dhl::accel {

inline constexpr std::size_t kNcHeaderBytes = 8;
inline constexpr unsigned kNcMaxWindow = 32;

/// Record header, little-endian on the wire.
struct NcHeader {
  std::uint8_t window = 0;   ///< source symbols per generation
  std::uint8_t count = 0;    ///< rows following the header (encode: 0)
  std::uint16_t sym_len = 0; ///< symbol payload bytes
  std::uint32_t seed = 0;    ///< coefficient draw seed (encode/recode)
};

void nc_write_header(std::span<std::uint8_t> out, const NcHeader& h);
std::optional<NcHeader> nc_parse_header(std::span<const std::uint8_t> in);

/// Build an nc-encode input record: header + window * sym_len source bytes
/// (`block` is the concatenated source symbols).
std::vector<std::uint8_t> nc_encode_record(std::span<const std::uint8_t> block,
                                           unsigned window, unsigned sym_len,
                                           std::uint32_t seed);

/// Build an nc-recode / nc-decode input record from coded rows; each row
/// is `window` coefficient bytes followed by `sym_len` payload bytes.
std::vector<std::uint8_t> nc_rows_record(
    const std::vector<std::vector<std::uint8_t>>& rows, unsigned window,
    unsigned sym_len, std::uint32_t seed);

/// The deterministic coefficient draw shared by the modules and any host
/// that wants to predict one: `n` bytes from Xoshiro256(seed), patched so
/// the vector is never all-zero.
std::vector<std::uint8_t> nc_draw_coefficients(std::uint32_t seed,
                                               std::size_t n);

/// Incremental Gaussian-elimination decoder (host-side mirror of the
/// nc-decode module; also usable directly by CPU NFs).  Feed coded rows as
/// they arrive; once rank() == window the source block is recovered.
class NcDecoder {
 public:
  NcDecoder(unsigned window, unsigned sym_len);

  /// Returns true when the row was innovative (rank increased).
  bool add_row(std::span<const std::uint8_t> coeffs,
               std::span<const std::uint8_t> symbol);

  unsigned rank() const { return rank_; }
  bool complete() const { return rank_ == window_; }

  /// Decoded symbol `i` (valid once complete(); back-substitution runs on
  /// first access after completion).
  std::span<const std::uint8_t> symbol(unsigned i);

 private:
  void back_substitute();

  unsigned window_;
  unsigned sym_len_;
  unsigned rank_ = 0;
  bool reduced_ = false;
  /// Pivot row per column: window + sym_len bytes, empty when absent.
  std::vector<std::vector<std::uint8_t>> pivot_;
};

/// nc-encode: one coded packet from a full source window.
///   in : header{window, count=0, sym_len, seed} + window*sym_len bytes
///   out: header{count=1} + coeffs[window] + coded symbol   (shrinks)
///   result: kOk, or kMalformed (record untouched; also when the coded row
///           would not fit, i.e. window == 1 or sym_len == 1)
class NcEncodeModule final : public fpga::AcceleratorModule {
 public:
  static constexpr std::uint64_t kOk = 0;
  static constexpr std::uint64_t kMalformed = 2;

  const std::string& name() const override {
    static const std::string kName = "nc-encode";
    return kName;
  }
  fpga::ModuleResources resources() const override { return {8'600, 64}; }
  fpga::ModuleTiming timing() const override {
    // One GF multiply-accumulate lane per datapath byte: wire speed, short
    // pipeline (our characterization; DESIGN.md section 3.7).
    return {Bandwidth::gbps(58.0), 72};
  }
  void configure(std::span<const std::uint8_t> config) override;
  fpga::ProcessResult process(std::span<std::uint8_t> data) override;
};

/// nc-recode: recombine k coded rows into one (relay path; no decode).
///   in : header{window, count=k, sym_len, seed} + k rows
///   out: header{count=1} + combined coeffs + recoded symbol   (shrinks)
class NcRecodeModule final : public fpga::AcceleratorModule {
 public:
  static constexpr std::uint64_t kOk = 0;
  static constexpr std::uint64_t kMalformed = 2;

  const std::string& name() const override {
    static const std::string kName = "nc-recode";
    return kName;
  }
  fpga::ModuleResources resources() const override { return {9'400, 72}; }
  fpga::ModuleTiming timing() const override {
    return {Bandwidth::gbps(52.0), 84};
  }
  void configure(std::span<const std::uint8_t> config) override;
  fpga::ProcessResult process(std::span<std::uint8_t> data) override;
};

/// nc-decode: Gaussian elimination back to the source block.
///   in : header{window, count=k, sym_len} + k rows
///   out: window * sym_len decoded source bytes (raw block, no header)
///   result: the achieved rank (== window on success), or kSingular when
///   the rows do not span the window (record untouched).
class NcDecodeModule final : public fpga::AcceleratorModule {
 public:
  static constexpr std::uint64_t kMalformed = ~0ULL;
  static constexpr std::uint64_t kSingular = ~0ULL - 1;

  const std::string& name() const override {
    static const std::string kName = "nc-decode";
    return kName;
  }
  fpga::ModuleResources resources() const override { return {13'200, 118}; }
  fpga::ModuleTiming timing() const override {
    // Elimination is O(window^2) per symbol byte: the slowest family
    // member, still above the 40G link.
    return {Bandwidth::gbps(41.0), 140};
  }
  void configure(std::span<const std::uint8_t> config) override;
  fpga::ProcessResult process(std::span<std::uint8_t> data) override;
};

fpga::PartialBitstream nc_encode_bitstream();
fpga::PartialBitstream nc_recode_bitstream();
fpga::PartialBitstream nc_decode_bitstream();

}  // namespace dhl::accel
