#pragma once

// Aho-Corasick multi-pattern matcher.
//
// The automaton is built as a dense DFA -- the AC-DFA of Jiang et al. [35]
// that the paper ports to FPGA.  Both of the paper's deployments scan with
// it through one caller, PatternMatchingModule::process_batch: the FPGA
// model of the pattern-matching module, its software fallback, and the
// CPU-only NIDS (paper V-B2), so software and hardware paths return
// identical matches.
//
// Construction: trie (sorted-vector edges) -> BFS failure links -> output
// merging -> dense next-state table (state x 256), stored as uint16 when the
// automaton has <= 65536 states to halve its cache footprint.  States are
// numbered non-accepting first, so "does this state accept" is one compare
// against first_accept_ and the scan loops load nothing but the table.
//
// Scanning: the per-byte step is a single dependent table load, so one walk
// is bounded by load latency, not bandwidth.  find_all_multi() keeps kLanes
// independent walks in registers, one call-free kernel per live-lane width,
// so their loads overlap in the memory pipeline.  To fill the lanes when a
// call holds fewer than kLanes texts (one record, a 4-record Packer batch),
// it cuts long texts into pieces; each piece after a text's first starts
// (longest pattern - 1) bytes early, which puts the DFA in the whole-text
// state by the first byte of its own range, and reports only matches that
// end inside that range.  Under a DHL_SIMD=scalar cap (common/simd.hpp) it
// runs the single-lane reference find_all() per text; outputs are
// bit-identical either way (test_simd_parity).

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace dhl::match {

struct PatternMatch {
  std::uint32_t pattern;     // index into the pattern list
  std::size_t end_offset;    // offset one past the last matched byte
};

class AhoCorasick {
 public:
  /// Lanes stepped concurrently by find_all_multi (8 independent dependent-
  /// load chains is enough to fill the load pipeline on current x86).
  static constexpr std::size_t kLanes = 8;

  /// Build an automaton over `patterns`.  Empty patterns are rejected.
  /// `case_insensitive` folds ASCII case (Snort "nocase").
  /// `compact_table` narrows the dense table to uint16 entries when the
  /// state count allows; pass false to force the wide table (tests cover
  /// the >65536-state layout without building a 65536-state automaton).
  static AhoCorasick build(std::span<const std::string> patterns,
                           bool case_insensitive = false,
                           bool compact_table = true);

  std::size_t pattern_count() const { return pattern_count_; }
  std::size_t state_count() const { return output_range_.size(); }
  bool case_insensitive() const { return case_insensitive_; }
  bool compact_table() const { return !dfa16_.empty(); }

  /// Append every match in `text` to `out`.  Returns the number found.
  std::size_t find_all(std::span<const std::uint8_t> text,
                       std::vector<PatternMatch>& out) const;

  /// Multi-lane find_all: clear `out[i]`, then fill it with the matches of
  /// `texts[i]` (out must be at least texts.size() long).  Returns the total
  /// number of matches.  Per-text results are byte-identical to find_all on
  /// that text, order included.
  std::size_t find_all_multi(
      std::span<const std::span<const std::uint8_t>> texts,
      std::span<std::vector<PatternMatch>> out) const;

  /// True as soon as any pattern occurs (early exit).
  bool contains_any(std::span<const std::uint8_t> text) const;

  /// Number of distinct patterns that occur in `text` (each counted once).
  std::size_t count_distinct(std::span<const std::uint8_t> text) const;

  /// Walk one byte from `state` (the reference scans' step).  Case folding
  /// is baked into the table rows at build time, so the hot path is one
  /// dependent load, no fold lookup.
  std::uint32_t step(std::uint32_t state, std::uint8_t byte) const {
    const std::size_t i = static_cast<std::size_t>(state) * 256 + byte;
    return dfa16_.empty() ? dfa_[i] : dfa16_[i];
  }
  /// True when `state` accepts at least one pattern: accepting states are
  /// numbered last, so this is one compare and no load.
  bool has_output(std::uint32_t state) const { return state >= first_accept_; }
  /// Patterns accepted at `state` (indices into the pattern list).
  std::span<const std::uint32_t> outputs(std::uint32_t state) const {
    const auto& range = output_range_[state];
    return {outputs_.data() + range.first, range.second};
  }

 private:
  AhoCorasick() = default;

  template <typename Entry>
  std::size_t scan_lanes(const Entry* table,
                         std::span<const std::span<const std::uint8_t>> texts,
                         std::span<std::vector<PatternMatch>> out,
                         std::size_t piece) const;

  bool case_insensitive_ = false;
  std::array<std::uint8_t, 256> fold_{};      // identity or tolower
  std::vector<std::uint32_t> dfa_;            // dense: state*256 + byte
  std::vector<std::uint16_t> dfa16_;          // narrow form (exclusive w/ dfa_)
  std::uint32_t first_accept_ = 0;            // states >= this accept
  std::vector<std::pair<std::uint32_t, std::uint32_t>> output_range_;
  std::vector<std::uint32_t> outputs_;        // flattened output lists
  std::size_t pattern_count_ = 0;
  std::size_t longest_ = 0;                   // longest pattern, bytes
};

}  // namespace dhl::match
