// Unit tests for the NF execution models: run-to-completion, DPDK pipeline
// mode, and the DHL offload model.

#include <gtest/gtest.h>

#include "dhl/nf/dhl_nf.hpp"
#include "dhl/nf/forwarders.hpp"
#include "dhl/nf/ipsec_gateway.hpp"
#include "dhl/nf/testbed.hpp"

namespace dhl::nf {
namespace {

CostFn flat_cost(double cycles) {
  return [cycles](const netio::Mbuf&) { return cycles; };
}

TEST(RunToCompletion, ThroughputScalesWithCores) {
  // A 2000-cycle/packet function: one core ~1.05 Mpps, two cores ~2.1 Mpps.
  auto run = [](std::uint32_t cores) {
    Testbed tb;
    auto* port = tb.add_port("p", Bandwidth::gbps(40));
    RunToCompletionConfig cfg;
    cfg.timing = tb.timing();
    cfg.num_cores = cores;
    RunToCompletionNf nf{tb.sim(), cfg, {port}, io_fwd_fn(), flat_cost(2000)};
    nf.start();
    netio::TrafficConfig traffic;
    traffic.frame_len = 64;
    port->start_traffic(traffic, 1.0);
    tb.measure(milliseconds(2), milliseconds(4));
    return port->tx_meter().pps(milliseconds(4));
  };
  const double one = run(1);
  const double two = run(2);
  // Per-packet budget: 2000-cycle function + ~50 cycles of NIC handling.
  EXPECT_NEAR(one, 2.1e9 / 2050, one * 0.1);
  EXPECT_NEAR(two / one, 2.0, 0.2);
}

TEST(RunToCompletion, DropVerdictFreesPackets) {
  Testbed tb;
  auto* port = tb.add_port("p", Bandwidth::gbps(10));
  RunToCompletionConfig cfg;
  cfg.timing = tb.timing();
  RunToCompletionNf nf{tb.sim(), cfg, {port},
                       [](netio::Mbuf&) { return Verdict::kDrop; },
                       flat_cost(10)};
  nf.start();
  netio::TrafficConfig traffic;
  port->start_traffic(traffic, 0.3);
  tb.measure(milliseconds(1), milliseconds(2));
  EXPECT_GT(nf.stats().dropped, 1000u);
  EXPECT_EQ(nf.stats().tx_pkts, 0u);
  port->stop_traffic();
  tb.run_for(milliseconds(1));
  EXPECT_EQ(tb.pool(0).in_use(), 0u);  // all freed
}

TEST(CpuPipeline, WorkersShareTheLoad) {
  // Worker-bound pipeline: doubling workers doubles throughput.
  auto run = [](std::uint32_t workers) {
    Testbed tb;
    auto* port = tb.add_port("p", Bandwidth::gbps(40));
    PipelineConfig cfg;
    cfg.timing = tb.timing();
    cfg.num_workers = workers;
    CpuPipelineNf nf{tb.sim(), cfg, {port}, io_fwd_fn(), flat_cost(4000)};
    nf.start();
    netio::TrafficConfig traffic;
    traffic.frame_len = 64;
    port->start_traffic(traffic, 1.0);
    tb.measure(milliseconds(2), milliseconds(4));
    return port->tx_meter().pps(milliseconds(4));
  };
  const double one = run(1);
  const double four = run(4);
  EXPECT_NEAR(four / one, 4.0, 0.4);
}

TEST(CpuPipeline, RingOverflowCountsDrops) {
  Testbed tb;
  auto* port = tb.add_port("p", Bandwidth::gbps(40));
  PipelineConfig cfg;
  cfg.timing = tb.timing();
  cfg.num_workers = 1;
  cfg.ring_size = 64;
  // Workers far slower than the line: rx_ring overflows.
  CpuPipelineNf nf{tb.sim(), cfg, {port}, io_fwd_fn(), flat_cost(100'000)};
  nf.start();
  netio::TrafficConfig traffic;
  traffic.frame_len = 64;
  port->start_traffic(traffic, 1.0);
  tb.measure(milliseconds(1), milliseconds(2));
  EXPECT_GT(nf.stats().ring_drops, 1000u);
}

TEST(CpuPipeline, PacketsReturnViaTheirArrivalPort) {
  Testbed tb;
  auto* a = tb.add_port("a", Bandwidth::gbps(10));
  auto* b = tb.add_port("b", Bandwidth::gbps(10));
  PipelineConfig cfg;
  cfg.timing = tb.timing();
  CpuPipelineNf nf{tb.sim(), cfg, {a, b}, io_fwd_fn(), flat_cost(50)};
  nf.start();
  netio::TrafficConfig traffic;
  traffic.frame_len = 256;
  a->start_traffic(traffic, 0.5);
  traffic.seed = 2;
  b->start_traffic(traffic, 0.3);
  tb.measure(milliseconds(1), milliseconds(3));
  // Each port transmits what it received (0.5 vs 0.3 load split).
  EXPECT_NEAR(forwarded_wire_gbps(*a, 256, milliseconds(3)), 5.0, 0.4);
  EXPECT_NEAR(forwarded_wire_gbps(*b, 256, milliseconds(3)), 3.0, 0.4);
}

TEST(CpuPipeline, BadPortIsCountedAndDroppedNotMisTxed) {
  // The worker steers packets to a port id the NF does not own: the TX I/O
  // core must drop and count them, never transmit on some other port.
  Testbed tb;
  auto* port = tb.add_port("p", Bandwidth::gbps(10));
  PipelineConfig cfg;
  cfg.timing = tb.timing();
  CpuPipelineNf nf{tb.sim(), cfg, {port},
                   [](netio::Mbuf& m) {
                     m.set_port(77);
                     return Verdict::kForward;
                   },
                   flat_cost(50)};
  nf.start();
  netio::TrafficConfig traffic;
  port->start_traffic(traffic, 0.3);
  tb.measure(milliseconds(1), milliseconds(2));
  port->stop_traffic();
  tb.run_for(milliseconds(1));

  EXPECT_GT(nf.stats().bad_port_drops, 1000u);
  EXPECT_EQ(nf.stats().bad_port_drops, nf.stats().processed);
  EXPECT_EQ(nf.stats().tx_pkts, 0u);
  EXPECT_EQ(port->tx_meter().frames(), 0u);
  EXPECT_EQ(tb.pool(0).in_use(), 0u);  // all released
}

TEST(RunToCompletion, BadPortIsCountedAndDroppedNotMisTxed) {
  // The function steers packets to a port id the NF does not own: the core
  // must drop and count them, never transmit on the arrival port.
  Testbed tb;
  auto* port = tb.add_port("p", Bandwidth::gbps(10));
  RunToCompletionConfig cfg;
  cfg.timing = tb.timing();
  RunToCompletionNf nf{tb.sim(), cfg, {port},
                       [](netio::Mbuf& m) {
                         m.set_port(77);
                         return Verdict::kForward;
                       },
                       flat_cost(50)};
  nf.start();
  netio::TrafficConfig traffic;
  port->start_traffic(traffic, 0.3);
  tb.measure(milliseconds(1), milliseconds(2));
  port->stop_traffic();
  tb.run_for(milliseconds(1));

  EXPECT_GT(nf.stats().bad_port_drops, 1000u);
  EXPECT_EQ(nf.stats().bad_port_drops, nf.stats().processed);
  EXPECT_EQ(nf.stats().tx_pkts, 0u);
  EXPECT_EQ(port->tx_meter().frames(), 0u);
  EXPECT_EQ(tb.pool(0).in_use(), 0u);  // all released
}

TEST(DhlOffload, BypassedPacketsSkipTheFpga) {
  Testbed tb;
  auto* port = tb.add_port("p", Bandwidth::gbps(10));
  auto& rt = tb.init_runtime();
  const auto sa = test_security_association();
  // Policy matches nothing -> every packet bypasses.
  IpsecPolicy policy;
  policy.dst_prefix = netio::ipv4_addr(1, 1, 1, 0);
  policy.dst_depth = 24;
  auto proc = std::make_shared<IpsecProcessor>(sa, policy);

  DhlNfConfig cfg;
  cfg.timing = tb.timing();
  cfg.hf_name = "ipsec-crypto";
  cfg.acc_config = accel::ipsec_module_config(false, sa);
  DhlOffloadNf nf{tb.sim(),
                  cfg,
                  {port},
                  rt,
                  [proc](netio::Mbuf& m) { return proc->dhl_prep(m); },
                  ipsec_dhl_prep_cost(tb.timing()),
                  [proc](netio::Mbuf& m) { return proc->dhl_post(m); },
                  ipsec_dhl_post_cost(tb.timing())};
  tb.run_for(milliseconds(30));
  rt.start();
  nf.start();
  netio::TrafficConfig traffic;
  traffic.frame_len = 256;
  port->start_traffic(traffic, 0.5);
  tb.measure(milliseconds(1), milliseconds(2));

  EXPECT_GT(nf.stats().completed, 1000u);
  EXPECT_EQ(nf.stats().offloads, 0u);  // nothing offloaded
  EXPECT_EQ(
      rt.telemetry().metrics.snapshot().sum("dhl.runtime.pkts_to_fpga"), 0);
  EXPECT_GT(proc->stats().bypassed, 1000u);
  // Bypassed packets go out unmodified at near-offered rate.
  EXPECT_NEAR(forwarded_wire_gbps(*port, 256, milliseconds(2)), 5.0, 0.4);
}

TEST(DhlOffload, PerPortCoreModeServesBothPorts) {
  Testbed tb;
  auto* a = tb.add_port("a", Bandwidth::gbps(10));
  auto* b = tb.add_port("b", Bandwidth::gbps(10));
  auto& rt = tb.init_runtime();
  const auto sa = test_security_association();
  auto proc = std::make_shared<IpsecProcessor>(sa, IpsecPolicy{});

  DhlNfConfig cfg;
  cfg.timing = tb.timing();
  cfg.hf_name = "ipsec-crypto";
  cfg.acc_config = accel::ipsec_module_config(false, sa);
  cfg.split_ingress_egress = false;  // one core per port
  DhlOffloadNf nf{tb.sim(),
                  cfg,
                  {a, b},
                  rt,
                  [proc](netio::Mbuf& m) { return proc->dhl_prep(m); },
                  ipsec_dhl_prep_cost(tb.timing()),
                  [proc](netio::Mbuf& m) { return proc->dhl_post(m); },
                  ipsec_dhl_post_cost(tb.timing())};
  EXPECT_EQ(nf.cores().size(), 2u);  // one per port, no dedicated egress
  tb.run_for(milliseconds(30));
  rt.start();
  nf.start();
  netio::TrafficConfig traffic;
  traffic.frame_len = 512;
  a->start_traffic(traffic, 0.8);
  traffic.seed = 9;
  b->start_traffic(traffic, 0.8);
  tb.measure(milliseconds(2), milliseconds(3));
  EXPECT_NEAR(forwarded_wire_gbps(*a, 512, milliseconds(3)), 8.0, 0.5);
  EXPECT_NEAR(forwarded_wire_gbps(*b, 512, milliseconds(3)), 8.0, 0.5);
}

TEST(Forwarders, L3fwdDropsOnLookupMiss) {
  Testbed tb;
  auto* port = tb.add_port("p", Bandwidth::gbps(10));
  // Empty route table: every packet misses and drops.
  auto empty = std::make_shared<netio::LpmTable>();
  RunToCompletionConfig cfg;
  cfg.timing = tb.timing();
  RunToCompletionNf nf{tb.sim(), cfg, {port}, l3fwd_fn(empty),
                       l3fwd_cost(tb.timing())};
  nf.start();
  netio::TrafficConfig traffic;
  port->start_traffic(traffic, 0.2);
  tb.measure(milliseconds(1), milliseconds(1));
  EXPECT_GT(nf.stats().dropped, 100u);
  EXPECT_EQ(nf.stats().tx_pkts, 0u);
}

TEST(Forwarders, L3fwdRoutesWithTestTable) {
  Testbed tb;
  auto* port = tb.add_port("p", Bandwidth::gbps(10));
  netio::TrafficConfig traffic;
  auto routes = make_test_routes(traffic.dst_ip_base, traffic.num_flows);
  RunToCompletionConfig cfg;
  cfg.timing = tb.timing();
  RunToCompletionNf nf{tb.sim(), cfg, {port}, l3fwd_fn(routes),
                       l3fwd_cost(tb.timing())};
  nf.start();
  port->start_traffic(traffic, 0.5);
  tb.measure(milliseconds(1), milliseconds(2));
  EXPECT_EQ(nf.stats().dropped, 0u);
  EXPECT_GT(nf.stats().tx_pkts, 5000u);
}

}  // namespace
}  // namespace dhl::nf
