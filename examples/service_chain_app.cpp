// Service-chain example: the classic enterprise egress chain
//
//     NIDS (pattern-matching on FPGA)  ->  ESP encap (CPU)  ->
//     IPsec crypto (ipsec-crypto on FPGA)
//
// Each packet makes two round trips through *different* accelerator modules
// on the same FPGA -- the flexibility the paper's intro argues FPGA-only NF
// designs cannot give you ("it is thus inflexible to use FPGA to implement
// the entire NFV service chain").
//
// Usage: ./examples/service_chain_app

#include <cstdio>
#include <memory>

#include "dhl/nf/chain.hpp"
#include "dhl/nf/ipsec_gateway.hpp"
#include "dhl/nf/nids.hpp"
#include "dhl/nf/testbed.hpp"

int main() {
  using namespace dhl;

  nf::Testbed tb;
  auto* port = tb.add_port("xl710", Bandwidth::gbps(40));

  auto rules = std::make_shared<match::RuleSet>(
      match::RuleSet::builtin_snort_sample());
  auto automaton = nf::NidsProcessor::build_automaton(*rules);
  auto& rt = tb.init_runtime(automaton);

  const auto sa = nf::test_security_association();
  auto nids = std::make_shared<nf::NidsProcessor>(rules, automaton);
  auto ipsec = std::make_shared<nf::IpsecProcessor>(sa, nf::IpsecPolicy{});

  std::vector<nf::ChainStage> stages;
  stages.push_back(nf::ChainStage::offload(
      "nids", "pattern-matching", {},
      [nids](netio::Mbuf& m) { return nids->dhl_post(m); },
      nf::nids_dhl_post_cost(tb.timing())));
  stages.push_back(nf::ChainStage::cpu(
      "esp-encap",
      [ipsec](netio::Mbuf& m) { return ipsec->dhl_prep(m); },
      nf::ipsec_dhl_prep_cost(tb.timing())));
  stages.push_back(nf::ChainStage::offload(
      "ipsec", "ipsec-crypto", accel::ipsec_module_config(false, sa),
      [ipsec](netio::Mbuf& m) { return ipsec->dhl_post(m); },
      nf::ipsec_dhl_post_cost(tb.timing())));

  nf::ChainNf chain{tb.sim(), nf::ChainConfig{.name = "egress-chain",
                                              .timing = tb.timing()},
                    {port}, &rt, std::move(stages)};

  tb.run_for(milliseconds(70));  // both PR loads (ICAP serializes them)
  if (!chain.ready()) {
    std::fprintf(stderr, "modules failed to load\n");
    return 1;
  }
  std::printf("chain ready: %zu stages, %zu hardware functions on one FPGA\n",
              chain.stage_count(), rt.function_table().snapshot().size());
  rt.start();
  chain.start();

  netio::TrafficConfig traffic;
  traffic.frame_len = 512;
  traffic.payload = netio::PayloadKind::kTextAttacks;
  traffic.attack_probability = 0.02;
  traffic.attack_strings = {"/bin/sh", "xc3511"};
  port->start_traffic(traffic, 0.4);
  tb.measure(milliseconds(3), milliseconds(8));
  port->stop_traffic();
  tb.run_for(milliseconds(2));

  const auto& s = chain.stats();
  std::printf("chain throughput: %.2f Gbps\n",
              nf::forwarded_wire_gbps(*port, 512, milliseconds(8)));
  std::printf("median latency through both modules: %.2f us\n",
              to_microseconds(port->latency().percentile(0.5)));
  std::printf("packets completed: %llu (offloads: %llu = 2 per packet)\n",
              static_cast<unsigned long long>(s.completed),
              static_cast<unsigned long long>(s.offloads));
  std::printf("NIDS alerts: %llu; packets encrypted: %llu\n",
              static_cast<unsigned long long>(nids->stats().alerts),
              static_cast<unsigned long long>(ipsec->stats().encapsulated));
  return 0;
}
