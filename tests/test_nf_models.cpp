// Unit tests for the NF engine's core layouts: run-to-completion (a CPU
// chain on kSplit), DPDK pipeline mode (kPipeline), and the DHL offload
// model on kSplit and kPerPort.

#include <gtest/gtest.h>

#include <stdexcept>

#include "dhl/nf/dhl_nf.hpp"
#include "dhl/nf/forwarders.hpp"
#include "dhl/nf/ipsec_gateway.hpp"
#include "dhl/nf/testbed.hpp"

namespace dhl::nf {
namespace {

CostFn flat_cost(double cycles) {
  return [cycles](const netio::Mbuf&) { return cycles; };
}

/// A one-stage CPU chain running `fn` on `layout` with `workers` cores.
ChainNf cpu_chain(Testbed& tb, std::vector<netio::NicPort*> ports,
                  CoreLayout layout, std::uint32_t workers, PacketFn fn,
                  CostFn cost, std::uint32_t ring_size = 4096) {
  return ChainNf{tb.sim(),
                 ChainConfig{.timing = tb.timing(),
                             .layout = layout,
                             .workers = workers,
                             .ring_size = ring_size},
                 std::move(ports),
                 nullptr,
                 {ChainStage::cpu("fn", std::move(fn), std::move(cost))}};
}

PacketFn missteer_fn() {
  return [](netio::Mbuf& m) {
    m.set_port(77);
    return Verdict::kForward;
  };
}

TEST(SplitLayout, ThroughputScalesWithCores) {
  // A 2000-cycle/packet function: one core ~1.05 Mpps, two cores ~2.1 Mpps.
  auto run = [](std::uint32_t cores) {
    Testbed tb;
    auto* port = tb.add_port("p", Bandwidth::gbps(40));
    ChainNf nf = cpu_chain(tb, {port}, CoreLayout::kSplit, cores,
                           io_fwd_fn(), flat_cost(2000));
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

TEST(SplitLayout, DropVerdictFreesPackets) {
  Testbed tb;
  auto* port = tb.add_port("p", Bandwidth::gbps(10));
  ChainNf nf = cpu_chain(tb, {port}, CoreLayout::kSplit, 1,
                         [](netio::Mbuf&) { return Verdict::kDrop; },
                         flat_cost(10));
  nf.start();
  netio::TrafficConfig traffic;
  port->start_traffic(traffic, 0.3);
  tb.measure(milliseconds(1), milliseconds(2));
  EXPECT_GT(nf.stats().dropped, 1000u);
  EXPECT_EQ(nf.stats().completed, 0u);
  port->stop_traffic();
  tb.run_for(milliseconds(1));
  EXPECT_EQ(tb.pool(0).in_use(), 0u);  // all freed
}

TEST(PipelineLayout, WorkersShareTheLoad) {
  // Worker-bound pipeline: doubling workers doubles throughput.
  auto run = [](std::uint32_t workers) {
    Testbed tb;
    auto* port = tb.add_port("p", Bandwidth::gbps(40));
    ChainNf nf = cpu_chain(tb, {port}, CoreLayout::kPipeline, workers,
                           io_fwd_fn(), flat_cost(4000));
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

TEST(PipelineLayout, RingOverflowCountsDrops) {
  Testbed tb;
  auto* port = tb.add_port("p", Bandwidth::gbps(40));
  // Workers far slower than the line: rx_ring overflows.
  ChainNf nf = cpu_chain(tb, {port}, CoreLayout::kPipeline, 1, io_fwd_fn(),
                         flat_cost(100'000), /*ring_size=*/64);
  nf.start();
  netio::TrafficConfig traffic;
  traffic.frame_len = 64;
  port->start_traffic(traffic, 1.0);
  tb.measure(milliseconds(1), milliseconds(2));
  EXPECT_GT(nf.stats().ring_drops, 1000u);
}

TEST(PipelineLayout, PacketsReturnViaTheirArrivalPort) {
  Testbed tb;
  auto* a = tb.add_port("a", Bandwidth::gbps(10));
  auto* b = tb.add_port("b", Bandwidth::gbps(10));
  ChainNf nf = cpu_chain(tb, {a, b}, CoreLayout::kPipeline, 2, io_fwd_fn(),
                         flat_cost(50));
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

TEST(PipelineLayout, BadPortIsCountedAndDroppedNotMisTxed) {
  // The worker steers packets to a port id the NF does not own: the TX I/O
  // core must drop and count them, never transmit on some other port.
  Testbed tb;
  auto* port = tb.add_port("p", Bandwidth::gbps(10));
  ChainNf nf = cpu_chain(tb, {port}, CoreLayout::kPipeline, 2, missteer_fn(),
                         flat_cost(50));
  nf.start();
  netio::TrafficConfig traffic;
  port->start_traffic(traffic, 0.3);
  tb.measure(milliseconds(1), milliseconds(2));
  port->stop_traffic();
  tb.run_for(milliseconds(1));

  EXPECT_GT(nf.stats().bad_port_drops, 1000u);
  EXPECT_EQ(nf.stats().bad_port_drops, nf.stats().rx_pkts);
  EXPECT_EQ(nf.stats().completed, 0u);
  EXPECT_EQ(port->tx_meter().frames(), 0u);
  EXPECT_EQ(tb.pool(0).in_use(), 0u);  // all released
}

TEST(SplitLayout, BadPortIsCountedAndDroppedNotMisTxed) {
  // The function steers packets to a port id the NF does not own: the core
  // must drop and count them, never transmit on the arrival port.
  Testbed tb;
  auto* port = tb.add_port("p", Bandwidth::gbps(10));
  ChainNf nf = cpu_chain(tb, {port}, CoreLayout::kSplit, 1, missteer_fn(),
                         flat_cost(50));
  nf.start();
  netio::TrafficConfig traffic;
  port->start_traffic(traffic, 0.3);
  tb.measure(milliseconds(1), milliseconds(2));
  port->stop_traffic();
  tb.run_for(milliseconds(1));

  EXPECT_GT(nf.stats().bad_port_drops, 1000u);
  EXPECT_EQ(nf.stats().bad_port_drops, nf.stats().rx_pkts);
  EXPECT_EQ(nf.stats().completed, 0u);
  EXPECT_EQ(port->tx_meter().frames(), 0u);
  EXPECT_EQ(tb.pool(0).in_use(), 0u);  // all released
}

// Every packet a CPU-only layout takes off a NIC is accounted for once the
// traffic stops: it left by NIC TX or is a counted drop, and its mbuf is
// back in the pool.
struct LayoutCase {
  const char* name;
  CoreLayout layout;
  std::uint32_t workers;
};

class CpuLayoutConservation : public ::testing::TestWithParam<LayoutCase> {};

TEST_P(CpuLayoutConservation, EveryReceivedPacketIsAccounted) {
  Testbed tb;
  auto* a = tb.add_port("a", Bandwidth::gbps(10));
  auto* b = tb.add_port("b", Bandwidth::gbps(10));
  // Every 7th packet drops, every 11th is steered to a port the chain does
  // not own, and the 300-cycle stage cannot keep up with both 64 B lines.
  std::uint64_t seen = 0;
  ChainNf nf = cpu_chain(
      tb, {a, b}, GetParam().layout, GetParam().workers,
      [&seen](netio::Mbuf& m) {
        ++seen;
        if (seen % 7 == 0) return Verdict::kDrop;
        if (seen % 11 == 0) m.set_port(77);
        return Verdict::kForward;
      },
      flat_cost(300), /*ring_size=*/64);
  nf.start();
  netio::TrafficConfig traffic;
  traffic.frame_len = 64;
  a->start_traffic(traffic, 0.5);
  traffic.seed = 2;
  b->start_traffic(traffic, 0.5);
  tb.run_for(milliseconds(2));
  EXPECT_TRUE(tb.quiesce_ledger().clean());

  const ChainStats& s = nf.stats();
  EXPECT_GT(s.completed, 1000u);
  EXPECT_GT(s.dropped, 0u);
  EXPECT_GT(s.bad_port_drops, 0u);
  if (GetParam().layout == CoreLayout::kPipeline) {
    EXPECT_GT(s.ring_drops, 0u);
  }
  EXPECT_EQ(s.rx_pkts, s.completed + s.dropped + s.ring_drops +
                           s.bad_port_drops);
  EXPECT_EQ(tb.pool(0).in_use(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, CpuLayoutConservation,
    ::testing::Values(LayoutCase{"Split", CoreLayout::kSplit, 1},
                      LayoutCase{"SplitTwoCores", CoreLayout::kSplit, 2},
                      LayoutCase{"PerPort", CoreLayout::kPerPort, 1},
                      LayoutCase{"Pipeline", CoreLayout::kPipeline, 2}),
    [](const ::testing::TestParamInfo<LayoutCase>& info) {
      return std::string{info.param.name};
    });

TEST(CoreLayouts, LimitsAreChecked) {
  Testbed tb;
  auto* a = tb.add_port("a", Bandwidth::gbps(10));
  auto* b = tb.add_port("b", Bandwidth::gbps(10));
  // kPerPort runs exactly one core per port.
  EXPECT_THROW(cpu_chain(tb, {a, b}, CoreLayout::kPerPort, 2, io_fwd_fn(),
                         flat_cost(1)),
               std::logic_error);
  auto& rt = tb.init_runtime();
  const auto offload_chain = [&](CoreLayout layout, std::uint32_t workers) {
    return ChainNf{
        tb.sim(),
        ChainConfig{
            .timing = tb.timing(), .layout = layout, .workers = workers},
        {a},
        &rt,
        {ChainStage::offload("loop", "loopback", {}, nullptr, nullptr)}};
  };
  // kPipeline takes CPU stages only; one OBQ has one consumer.
  EXPECT_THROW(offload_chain(CoreLayout::kPipeline, 1), std::logic_error);
  EXPECT_THROW(offload_chain(CoreLayout::kSplit, 2), std::logic_error);
  EXPECT_NO_THROW(offload_chain(CoreLayout::kSplit, 1));
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
  cfg.layout = CoreLayout::kPerPort;  // one core per port
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
  ChainNf nf = cpu_chain(tb, {port}, CoreLayout::kSplit, 1, l3fwd_fn(empty),
                         l3fwd_cost(tb.timing()));
  nf.start();
  netio::TrafficConfig traffic;
  port->start_traffic(traffic, 0.2);
  tb.measure(milliseconds(1), milliseconds(1));
  EXPECT_GT(nf.stats().dropped, 100u);
  EXPECT_EQ(nf.stats().completed, 0u);
}

TEST(Forwarders, L3fwdRoutesWithTestTable) {
  Testbed tb;
  auto* port = tb.add_port("p", Bandwidth::gbps(10));
  netio::TrafficConfig traffic;
  auto routes = make_test_routes(traffic.dst_ip_base, traffic.num_flows);
  ChainNf nf = cpu_chain(tb, {port}, CoreLayout::kSplit, 1, l3fwd_fn(routes),
                         l3fwd_cost(tb.timing()));
  nf.start();
  port->start_traffic(traffic, 0.5);
  tb.measure(milliseconds(1), milliseconds(2));
  EXPECT_EQ(nf.stats().dropped, 0u);
  EXPECT_GT(nf.stats().completed, 5000u);
}

}  // namespace
}  // namespace dhl::nf
