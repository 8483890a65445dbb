// Table I reproduction: "Performance of DPDK with one CPU core".
//
// Paper setup: 64 B packets, Intel X520 10G port, one core, DPDK 17.05 on a
// Xeon E5-2650 v3 @ 2.30 GHz.  Columns: per-packet processing latency in CPU
// cycles, and throughput.
//
// L2fwd and L3fwd-lpm are I/O-bound (their worker cost fits easily in the
// per-packet budget at 14.88 Mpps), so they run at line rate; the IPsec
// gateway is compute-bound at ~1.5 Gbps.  Note the paper's own two columns
// are not mutually consistent for IPsec (796 cycles at 2.3 GHz implies
// 2.89 Mpps = 1.94 Gbps wire, but 1.47 Gbps is reported); we calibrate
// between the two and report the deviation in EXPERIMENTS.md.

#include <cstdio>
#include <memory>

#include "bench_common.hpp"

namespace dhl::bench {
namespace {

struct Row {
  const char* name;
  double model_cycles;     // worker cycles per 64 B packet
  double measured_gbps;
  double paper_cycles;
  double paper_gbps;
};

double run_l2fwd(const sim::TimingParams& timing) {
  nf::TestbedConfig cfg;
  cfg.runtime.timing = timing;
  nf::Testbed tb{cfg};
  auto* port = tb.add_port("x520", Bandwidth::gbps(10));
  nf::ChainNf app{tb.sim(),
                  nf::ChainConfig{.name = "l2fwd", .timing = timing},
                  {port},
                  nullptr,
                  {nf::ChainStage::cpu("l2fwd", nf::l2fwd_fn(),
                                       nf::l2fwd_cost(timing))}};
  app.start();
  netio::TrafficConfig traffic;
  traffic.frame_len = 64;
  port->start_traffic(traffic, 1.0);
  tb.measure(milliseconds(2), milliseconds(5));
  return nf::forwarded_wire_gbps(*port, 64, milliseconds(5));
}

double run_l3fwd(const sim::TimingParams& timing) {
  nf::TestbedConfig cfg;
  cfg.runtime.timing = timing;
  nf::Testbed tb{cfg};
  auto* port = tb.add_port("x520", Bandwidth::gbps(10));
  netio::TrafficConfig traffic;
  traffic.frame_len = 64;
  auto routes = nf::make_test_routes(traffic.dst_ip_base, traffic.num_flows);
  nf::ChainNf app{tb.sim(),
                  nf::ChainConfig{.name = "l3fwd", .timing = timing},
                  {port},
                  nullptr,
                  {nf::ChainStage::cpu("l3fwd", nf::l3fwd_fn(routes),
                                       nf::l3fwd_cost(timing))}};
  app.start();
  port->start_traffic(traffic, 1.0);
  tb.measure(milliseconds(2), milliseconds(5));
  return nf::forwarded_wire_gbps(*port, 64, milliseconds(5));
}

double run_ipsec(const sim::TimingParams& timing) {
  nf::TestbedConfig cfg;
  cfg.runtime.timing = timing;
  nf::Testbed tb{cfg};
  auto* port = tb.add_port("x520", Bandwidth::gbps(10));
  auto proc = std::make_shared<nf::IpsecProcessor>(
      nf::test_security_association(), nf::IpsecPolicy{});
  nf::ChainNf app{
      tb.sim(),
      nf::ChainConfig{.name = "ipsec-gw", .timing = timing},
      {port},
      nullptr,
      {nf::ChainStage::cpu(
          "ipsec", [proc](netio::Mbuf& m) { return proc->cpu_encrypt(m); },
          nf::ipsec_cpu_cost(timing))}};
  app.start();
  netio::TrafficConfig traffic;
  traffic.frame_len = 64;
  port->start_traffic(traffic, 1.0);
  tb.measure(milliseconds(2), milliseconds(5));
  return nf::forwarded_wire_gbps(*port, 64, milliseconds(5));
}

}  // namespace
}  // namespace dhl::bench

int main() {
  using namespace dhl;
  using namespace dhl::bench;

  // Table I host: E5-2650 v3 @ 2.30 GHz.
  const sim::TimingParams timing = sim::table1_timing();

  print_title("Table I: Performance of DPDK with one CPU core (64 B packets, 10G port)");

  Row rows[] = {
      {"L2fwd", timing.nf.l2fwd_base, run_l2fwd(timing), 36, 9.95},
      {"L3fwd-lpm", timing.nf.l3fwd_base, run_l3fwd(timing), 60, 9.72},
      {"IPsec-gateway",
       timing.nf.cost(timing.nf.ipsec_base, timing.nf.ipsec_per_byte, 64),
       run_ipsec(timing), 796, 1.47},
  };

  std::printf("%-16s %18s %18s %14s %12s\n", "Network Function",
              "cycles/pkt (model)", "cycles/pkt (paper)", "Gbps (ours)",
              "Gbps (paper)");
  print_rule();
  for (const Row& r : rows) {
    std::printf("%-16s %18.0f %18.0f %14.2f %12.2f\n", r.name, r.model_cycles,
                r.paper_cycles, r.measured_gbps, r.paper_gbps);
  }
  std::printf(
      "\nNote: L2fwd/L3fwd are line-rate bound; IPsec is compute-bound.  The\n"
      "paper's cycle and Gbps columns for IPsec are mutually inconsistent\n"
      "(see EXPERIMENTS.md); our model splits the difference.\n");
  return 0;
}
