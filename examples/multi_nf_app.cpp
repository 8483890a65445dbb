// Multi-NF example (paper V-D / V-E): two NFs share one FPGA -- an IPsec
// gateway and an NIDS with *different* accelerator modules -- and the second
// module is partially reconfigured on the fly while the first NF carries
// traffic, demonstrating:
//   * hardware-function sharing & data isolation between NFs,
//   * PR without disturbing running accelerators.
//
// Usage: ./examples/multi_nf_app

#include <cstdio>
#include <memory>

#include "dhl/nf/dhl_nf.hpp"
#include "dhl/nf/ipsec_gateway.hpp"
#include "dhl/nf/nids.hpp"
#include "dhl/nf/testbed.hpp"

int main() {
  using namespace dhl;

  nf::Testbed tb;
  auto* port_a = tb.add_port("x520.0", Bandwidth::gbps(10));
  auto* port_b = tb.add_port("x520.1", Bandwidth::gbps(10));

  auto rules = std::make_shared<match::RuleSet>(
      match::RuleSet::builtin_snort_sample());
  auto automaton = nf::NidsProcessor::build_automaton(*rules);
  auto& rt = tb.init_runtime(automaton);

  // --- NF 1: IPsec gateway on port A ---
  const auto sa = nf::test_security_association();
  auto ipsec = std::make_shared<nf::IpsecProcessor>(sa, nf::IpsecPolicy{});
  nf::DhlNfConfig ipsec_cfg;
  ipsec_cfg.name = "ipsec";
  ipsec_cfg.timing = tb.timing();
  ipsec_cfg.hf_name = "ipsec-crypto";
  ipsec_cfg.acc_config = accel::ipsec_module_config(false, sa);
  ipsec_cfg.layout = nf::CoreLayout::kPerPort;
  nf::DhlOffloadNf ipsec_nf{
      tb.sim(),
      ipsec_cfg,
      {port_a},
      rt,
      [ipsec](netio::Mbuf& m) { return ipsec->dhl_prep(m); },
      nf::ipsec_dhl_prep_cost(tb.timing()),
      [ipsec](netio::Mbuf& m) { return ipsec->dhl_post(m); },
      nf::ipsec_dhl_post_cost(tb.timing())};

  tb.run_for(milliseconds(30));
  std::printf("ipsec-crypto loaded (region %d); starting IPsec traffic\n",
              rt.function_table().snapshot()[0].region);
  rt.start();
  ipsec_nf.start();
  netio::TrafficConfig traffic;
  traffic.frame_len = 512;
  port_a->start_traffic(traffic, 0.9);
  tb.run_for(milliseconds(3));

  // Baseline throughput window for NF 1.
  tb.reset_port_stats();
  tb.run_for(milliseconds(3));
  const double before =
      nf::forwarded_wire_gbps(*port_a, 512, milliseconds(3));
  std::printf("IPsec alone: %.2f Gbps\n", before);

  // --- NF 2: NIDS appears at runtime; its module loads through ICAP while
  // the IPsec gateway keeps running. ---
  auto nids = std::make_shared<nf::NidsProcessor>(rules, automaton);
  nf::DhlNfConfig nids_cfg;
  nids_cfg.name = "nids";
  nids_cfg.timing = tb.timing();
  nids_cfg.hf_name = "pattern-matching";
  nids_cfg.layout = nf::CoreLayout::kPerPort;
  nf::DhlOffloadNf nids_nf{
      tb.sim(),
      nids_cfg,
      {port_b},
      rt,
      [nids](netio::Mbuf& m) { return nids->dhl_prep(m); },
      nf::nids_dhl_prep_cost(tb.timing()),
      [nids](netio::Mbuf& m) { return nids->dhl_post(m); },
      nf::nids_dhl_post_cost(tb.timing())};

  // Measure NF 1 while the PR is in flight.
  tb.reset_port_stats();
  tb.run_for(milliseconds(3));
  const double during =
      nf::forwarded_wire_gbps(*port_a, 512, milliseconds(3));
  std::printf("IPsec during pattern-matching PR: %.2f Gbps (delta %+.2f%%)\n",
              during, (during - before) / before * 100.0);

  tb.run_for(milliseconds(40));
  std::printf("pattern-matching ready: %s\n",
              nids_nf.ready() ? "yes" : "no");

  // Run both NFs together.
  nids_nf.start();
  netio::TrafficConfig nids_traffic;
  nids_traffic.frame_len = 512;
  nids_traffic.payload = netio::PayloadKind::kTextAttacks;
  nids_traffic.attack_probability = 0.05;
  nids_traffic.attack_strings = {"/bin/sh"};
  port_b->start_traffic(nids_traffic, 0.9);
  tb.measure(milliseconds(2), milliseconds(5));

  std::printf("steady state with both NFs on one FPGA:\n");
  std::printf("  IPsec: %.2f Gbps (%llu encapsulated, %llu auth failures)\n",
              nf::forwarded_wire_gbps(*port_a, 512, milliseconds(5)),
              static_cast<unsigned long long>(ipsec->stats().encapsulated),
              static_cast<unsigned long long>(ipsec->stats().auth_failures));
  std::printf("  NIDS:  %.2f Gbps (%llu alerts)\n",
              nf::forwarded_wire_gbps(*port_b, 512, milliseconds(5)),
              static_cast<unsigned long long>(nids->stats().alerts));
  std::printf("  hardware function table: %zu entries, OBQ drops: %.0f\n",
              rt.function_table().snapshot().size(),
              tb.telemetry().metrics.snapshot().sum("dhl.runtime.obq_drops"));
  return 0;
}
