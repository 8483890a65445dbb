#pragma once

// Signature-based NIDS NF (paper V-B2).
//
// Workflow (paper Fig 5b): ingress -> pre-processing -> pattern matching ->
// rule options evaluation -> pass/drop.  Pattern matching uses Aho-Corasick;
// the DHL version offloads it to the pattern-matching module, and the
// CPU-only version runs that same module's scan in software.  Both evaluate
// rule options on the match bitmap of the module's result word.

#include <memory>
#include <vector>

#include "dhl/accel/pattern_matching.hpp"
#include "dhl/match/aho_corasick.hpp"
#include "dhl/match/ruleset.hpp"
#include "dhl/nf/chain.hpp"

namespace dhl::nf {

struct NidsStats {
  std::uint64_t scanned = 0;
  std::uint64_t alerts = 0;        // alert rules fired (packets still pass)
  std::uint64_t drops = 0;         // drop rules fired
  std::uint64_t pattern_hits = 0;  // packets with >= 1 pattern match
};

class NidsProcessor {
 public:
  NidsProcessor(std::shared_ptr<const match::RuleSet> rules,
                std::shared_ptr<const match::AhoCorasick> automaton);

  /// CPU-only worker body: the pattern-matching module's scan, then rule
  /// options on its result bitmap.
  Verdict cpu_process(netio::Mbuf& m);

  /// DHL ingress body: light sanity parse (pre-processing stage).
  Verdict dhl_prep(netio::Mbuf& m);

  /// DHL egress body: evaluate rule options from the module's result word.
  Verdict dhl_post(netio::Mbuf& m);

  const NidsStats& stats() const { return stats_; }
  const match::RuleSet& rules() const { return *rules_; }

  /// Build the automaton the CPU path and the FPGA module share.
  static std::shared_ptr<const match::AhoCorasick> build_automaton(
      const match::RuleSet& rules);

 private:
  Verdict evaluate_options(netio::Mbuf& m, std::uint64_t bitmap);

  std::shared_ptr<const match::RuleSet> rules_;
  std::vector<std::uint64_t> rule_masks_;  // per-rule required-pattern bitmap
  /// The CPU-only scan: the accelerator's own module, run in software.
  accel::PatternMatchingModule matcher_;
  NidsStats stats_;
};

/// Worker cycle-cost models.
CostFn nids_cpu_cost(const sim::TimingParams& timing);
CostFn nids_dhl_prep_cost(const sim::TimingParams& timing);
CostFn nids_dhl_post_cost(const sim::TimingParams& timing);

}  // namespace dhl::nf
