#include "dhl/nf/nids.hpp"

#include "dhl/common/check.hpp"
#include "dhl/netio/headers.hpp"

namespace dhl::nf {

using netio::Mbuf;

NidsProcessor::NidsProcessor(
    std::shared_ptr<const match::RuleSet> rules,
    std::shared_ptr<const match::AhoCorasick> automaton)
    : rules_{std::move(rules)}, matcher_{std::move(automaton)} {
  DHL_CHECK(rules_ != nullptr);
  DHL_CHECK_MSG(rules_->patterns().size() <= 48,
                "result-word bitmap covers 48 patterns; shard larger rulesets "
                "across modules");
  rule_masks_.reserve(rules_->size());
  for (std::size_t r = 0; r < rules_->size(); ++r) {
    std::uint64_t mask = 0;
    for (const std::uint32_t p : rules_->rule_patterns(r)) {
      mask |= 1ULL << p;
    }
    rule_masks_.push_back(mask);
  }
}

std::shared_ptr<const match::AhoCorasick> NidsProcessor::build_automaton(
    const match::RuleSet& rules) {
  // Snort semantics are per-content-option case sensitivity; like many
  // hardware engines the module folds case globally, and the rule-option
  // stage re-checks exact case for case-sensitive contents.  For simplicity
  // our option stage trusts the folded automaton (documented in DESIGN.md).
  return std::make_shared<const match::AhoCorasick>(
      match::AhoCorasick::build(rules.patterns(), /*case_insensitive=*/true));
}

Verdict NidsProcessor::evaluate_options(Mbuf& m, std::uint64_t bitmap) {
  if (bitmap == 0) return Verdict::kForward;
  ++stats_.pattern_hits;
  const netio::PacketView view = netio::parse_packet(m.payload());
  Verdict verdict = Verdict::kForward;
  for (std::size_t r = 0; r < rule_masks_.size(); ++r) {
    if ((bitmap & rule_masks_[r]) != rule_masks_[r]) continue;
    const match::Rule& rule = rules_->rules()[r];
    // Protocol / port constraints.
    if (rule.proto == "tcp" &&
        (!view.valid || view.ip.protocol != netio::kIpProtoTcp)) {
      continue;
    }
    if (rule.proto == "udp" &&
        (!view.valid || view.ip.protocol != netio::kIpProtoUdp)) {
      continue;
    }
    if (rule.src_port != 0 && (!view.valid || view.l4_src_port != rule.src_port)) {
      continue;
    }
    if (rule.dst_port != 0 && (!view.valid || view.l4_dst_port != rule.dst_port)) {
      continue;
    }
    switch (rule.action) {
      case match::RuleAction::kAlert:
        ++stats_.alerts;
        break;
      case match::RuleAction::kDrop:
        ++stats_.drops;
        verdict = Verdict::kDrop;
        break;
      case match::RuleAction::kPass:
        break;
    }
  }
  return verdict;
}

Verdict NidsProcessor::cpu_process(Mbuf& m) {
  ++stats_.scanned;
  const fpga::ProcessResult r = matcher_.process(m.payload());
  return evaluate_options(m, accel::pattern_result_bitmap(r.result));
}

Verdict NidsProcessor::dhl_prep(Mbuf& m) {
  // Pre-processing: drop runts that cannot hold a parsable header.
  if (m.data_len() < netio::kEthernetHeaderLen) return Verdict::kDrop;
  return Verdict::kForward;
}

Verdict NidsProcessor::dhl_post(Mbuf& m) {
  ++stats_.scanned;
  return evaluate_options(m, accel::pattern_result_bitmap(m.accel_result()));
}

CostFn nids_cpu_cost(const sim::TimingParams& timing) {
  const sim::NfCpuCosts nf = timing.nf;
  return [nf](const Mbuf& m) {
    return nf.cost(nf.nids_base, nf.nids_per_byte, m.data_len());
  };
}

CostFn nids_dhl_prep_cost(const sim::TimingParams& timing) {
  const double c = timing.nf.nids_dhl_prep;
  return [c](const Mbuf&) { return c; };
}

CostFn nids_dhl_post_cost(const sim::TimingParams& timing) {
  const double base = timing.nf.dhl_post;
  return [base](const Mbuf& m) {
    // Rule-option evaluation costs extra only when the module matched.
    return base + (accel::pattern_result_count(m.accel_result()) > 0 ? 60 : 0);
  };
}

}  // namespace dhl::nf
