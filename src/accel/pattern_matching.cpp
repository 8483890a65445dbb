#include "dhl/accel/pattern_matching.hpp"

#include <stdexcept>

#include "dhl/common/check.hpp"
#include "dhl/netio/headers.hpp"

namespace dhl::accel {

PatternMatchingModule::PatternMatchingModule(
    std::shared_ptr<const match::AhoCorasick> automaton)
    : automaton_{std::move(automaton)} {
  DHL_CHECK_MSG(automaton_ != nullptr, "pattern-matching needs an automaton");
  seen_.assign(automaton_->pattern_count(), 0);
}

void PatternMatchingModule::configure(std::span<const std::uint8_t> config) {
  // The DFA is fixed at synthesis time; only an empty blob is accepted
  // (DHL_acc_configure with defaults).
  if (!config.empty()) {
    throw std::invalid_argument(
        "pattern-matching: automaton is baked into the bitstream; "
        "reconfigure by loading a new PR bitstream");
  }
}

fpga::ProcessResult PatternMatchingModule::process(
    std::span<std::uint8_t> data) {
  fpga::ProcessResult result;
  process_batch({&data, 1}, {&result, 1});
  return result;
}

void PatternMatchingModule::process_batch(
    std::span<const std::span<std::uint8_t>> datas,
    std::span<fpga::ProcessResult> out) {
  DHL_CHECK(out.size() >= datas.size());
  const std::size_t n = datas.size();
  if (matches_.size() < n) matches_.resize(n);
  haystacks_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    // Scan the L4 payload of parsable packets, the whole frame otherwise
    // (the hardware DFA streams whatever bytes it is given).
    const netio::PacketView view = netio::parse_packet(datas[i]);
    haystacks_.push_back(
        datas[i].subspan(view.valid ? view.payload_offset : 0));
  }
  automaton_->find_all_multi(haystacks_, {matches_.data(), n});
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t bitmap = 0;
    std::uint32_t distinct = 0;
    for (const match::PatternMatch& m : matches_[i]) {
      if (seen_[m.pattern]) continue;
      seen_[m.pattern] = 1;
      touched_.push_back(m.pattern);
      ++distinct;
      if (m.pattern < 48) bitmap |= 1ULL << m.pattern;
    }
    for (const std::uint32_t p : touched_) seen_[p] = 0;
    touched_.clear();
    if (distinct > 0xffff) distinct = 0xffff;
    out[i] = {bitmap | (static_cast<std::uint64_t>(distinct) << 48),
              static_cast<std::uint32_t>(datas[i].size()),
              /*data_unmodified=*/true};
  }
}

fpga::PartialBitstream pattern_matching_bitstream(
    std::shared_ptr<const match::AhoCorasick> automaton) {
  fpga::PartialBitstream b;
  b.hf_name = "pattern-matching";
  b.size_bytes = 6'800'000;  // Table V: 6.8 MB
  b.resources = PatternMatchingModule{automaton}.resources();
  b.factory = [automaton] {
    return std::make_unique<PatternMatchingModule>(automaton);
  };
  return b;
}

}  // namespace dhl::accel
