#pragma once

// pattern-matching accelerator module (paper V-B2): the multi-pipeline
// AC-DFA of Jiang et al. [35], ported for the DHL NIDS.
//
// Table VI characterization: 6,336 LUTs (1.4%), 524 BRAM blocks (35.64% --
// the AC-DFA transition tables live in BRAM), 32.40 Gbps, 55 cycles delay.
// Table V: 6.8 MB PR bitstream.
//
// Functionally the module walks each packet's L4 payload through the same
// Aho-Corasick automaton the CPU-only NIDS uses (built from the ruleset's
// content strings), up to AhoCorasick::kLanes packets at a time like the
// hardware's parallel pipelines, and returns a result word per packet:
//
//   bits  0..47 : bitmap of matched pattern indices < 48
//   bits 48..63 : number of distinct patterns matched (saturating)
//
// The NIDS worker evaluates rule options on packets whose count is nonzero.

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dhl/fpga/accelerator.hpp"
#include "dhl/fpga/bitstream.hpp"
#include "dhl/match/aho_corasick.hpp"

namespace dhl::accel {

/// Decode helpers for the result word.
constexpr std::uint64_t pattern_result_bitmap(std::uint64_t result) {
  return result & ((1ULL << 48) - 1);
}
constexpr std::uint32_t pattern_result_count(std::uint64_t result) {
  return static_cast<std::uint32_t>(result >> 48);
}

class PatternMatchingModule final : public fpga::AcceleratorModule {
 public:
  /// The automaton is baked into the bitstream (its DFA occupies the BRAM),
  /// so it is a constructor argument, not runtime configuration.
  explicit PatternMatchingModule(
      std::shared_ptr<const match::AhoCorasick> automaton);

  const std::string& name() const override {
    static const std::string kName = "pattern-matching";
    return kName;
  }

  fpga::ModuleResources resources() const override { return {6'336, 524}; }

  fpga::ModuleTiming timing() const override {
    return {Bandwidth::gbps(32.40), 55};
  }

  void configure(std::span<const std::uint8_t> config) override;

  /// One-record process_batch().
  fpga::ProcessResult process(std::span<std::uint8_t> data) override;

  /// The module's one scan, shared by the FPGA model, the software
  /// fallback and the CPU-only NIDS: every record's payload goes through
  /// the automaton's multi-lane stepper (find_all_multi), which keeps
  /// AhoCorasick::kLanes DFA walks in flight -- one per record, or several
  /// per record when the call holds fewer, longer records.  The module
  /// never rewrites bytes, so the result word is its whole observable
  /// effect.
  void process_batch(std::span<const std::span<std::uint8_t>> datas,
                     std::span<fpga::ProcessResult> out) override;

 private:
  std::shared_ptr<const match::AhoCorasick> automaton_;
  /// Scan scratch (payload spans + per-record match lists), reused across
  /// calls so the hot path stays allocation-free at steady state.
  std::vector<std::span<const std::uint8_t>> haystacks_;
  std::vector<std::vector<match::PatternMatch>> matches_;
  /// Per-pattern "already counted" flags for the distinct count (the
  /// hardware DFA has this as a fixed match-vector register); `touched_`
  /// lists the entries to clear after each record.
  std::vector<std::uint8_t> seen_;
  std::vector<std::uint32_t> touched_;
};

/// Bitstream descriptor (Table V: 6.8 MB).
fpga::PartialBitstream pattern_matching_bitstream(
    std::shared_ptr<const match::AhoCorasick> automaton);

}  // namespace dhl::accel
