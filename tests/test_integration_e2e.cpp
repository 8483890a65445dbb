// End-to-end integration tests: full traffic -> NF -> FPGA -> NIC pipelines.

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <vector>

#include "dhl/accel/extra_modules.hpp"
#include "dhl/nf/dhl_nf.hpp"
#include "dhl/nf/forwarders.hpp"
#include "dhl/nf/ipsec_gateway.hpp"
#include "dhl/nf/nids.hpp"
#include "dhl/nf/testbed.hpp"

namespace dhl::nf {
namespace {

netio::TrafficConfig traffic_64b() {
  netio::TrafficConfig t;
  t.frame_len = 64;
  return t;
}

/// The CPU-only IPsec gateway of Fig 6: pipeline mode, 2 I/O cores and 2
/// workers.
ChainNf ipsec_cpu_pipeline(Testbed& tb, netio::NicPort* port,
                           std::shared_ptr<IpsecProcessor> proc) {
  return ChainNf{
      tb.sim(),
      ChainConfig{.name = "ipsec-cpu",
                  .timing = tb.timing(),
                  .layout = CoreLayout::kPipeline,
                  .workers = 2},
      {port},
      nullptr,
      {ChainStage::cpu("ipsec",
                       [proc](netio::Mbuf& m) { return proc->cpu_encrypt(m); },
                       ipsec_cpu_cost(tb.timing()))}};
}

TEST(Integration, L2fwdSaturatesA10GPortWithOneCore) {
  Testbed tb;
  auto* port = tb.add_port("p0", Bandwidth::gbps(10));

  ChainNf nf{tb.sim(),
             ChainConfig{.name = "l2fwd", .timing = tb.timing()},
             {port},
             nullptr,
             {ChainStage::cpu("l2fwd", l2fwd_fn(), l2fwd_cost(tb.timing()))}};
  nf.start();
  port->start_traffic(traffic_64b(), 1.0);
  tb.measure(milliseconds(2), milliseconds(5));

  EXPECT_NEAR(port->tx_meter().wire_rate(milliseconds(5)).gbps(), 10.0, 0.3);
  EXPECT_LT(to_microseconds(port->latency().percentile(0.5)), 50);
}

TEST(Integration, DhlIpsecGatewayEncryptsAtHighRateWithLowLatency) {
  Testbed tb;
  auto* port = tb.add_port("p40g", Bandwidth::gbps(40));
  auto& rt = tb.init_runtime();

  const auto sa = test_security_association();
  auto proc = std::make_shared<IpsecProcessor>(sa, IpsecPolicy{});

  DhlNfConfig cfg;
  cfg.name = "ipsec-dhl";
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

  tb.run_for(milliseconds(30));  // PR load
  ASSERT_TRUE(nf.ready());
  rt.start();
  nf.start();
  // 90% load keeps queues finite so latency is meaningful.
  netio::TrafficConfig traffic;
  traffic.frame_len = 512;
  port->start_traffic(traffic, 0.9);
  tb.measure(milliseconds(3), milliseconds(6));

  const double gbps = forwarded_wire_gbps(*port, 512, milliseconds(6));
  EXPECT_GT(gbps, 30.0);  // ~0.9 x 40G, input-traffic basis
  // Paper V-C: DHL latency below 10 us at any packet size.
  EXPECT_LT(to_microseconds(port->latency().percentile(0.5)), 12.0);
  EXPECT_EQ(
      rt.telemetry().metrics.snapshot().sum("dhl.runtime.error_records"), 0);
  EXPECT_GT(proc->stats().encapsulated, 50'000u);
  EXPECT_EQ(proc->stats().auth_failures, 0u);
  const auto audit = tb.quiesce_ledger();
  EXPECT_TRUE(audit.clean()) << audit.to_string();
}

TEST(Integration, CpuOnlyIpsecIsMuchSlowerThanDhl) {
  // The headline claim (Fig 6a): same total cores, DHL >> CPU-only.
  const auto run_cpu = [] {
    Testbed tb;
    auto* port = tb.add_port("p40g", Bandwidth::gbps(40));
    auto proc = std::make_shared<IpsecProcessor>(test_security_association(),
                                                 IpsecPolicy{});
    ChainNf nf = ipsec_cpu_pipeline(tb, port, proc);
    nf.start();
    netio::TrafficConfig traffic;
    traffic.frame_len = 64;
    port->start_traffic(traffic, 1.0);
    tb.measure(milliseconds(2), milliseconds(4));
    return forwarded_wire_gbps(*port, 64, milliseconds(4));
  };

  const auto run_dhl = [] {
    Testbed tb;
    auto* port = tb.add_port("p40g", Bandwidth::gbps(40));
    auto& rt = tb.init_runtime();
    const auto sa = test_security_association();
    auto proc = std::make_shared<IpsecProcessor>(sa, IpsecPolicy{});
    DhlNfConfig cfg;
    cfg.name = "ipsec-dhl";
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
    traffic.frame_len = 64;
    port->start_traffic(traffic, 1.0);
    tb.measure(milliseconds(2), milliseconds(4));
    const double gbps = forwarded_wire_gbps(*port, 64, milliseconds(4));
    const auto audit = tb.quiesce_ledger();
    EXPECT_TRUE(audit.clean()) << audit.to_string();
    return gbps;
  };

  const double cpu = run_cpu();
  const double dhl = run_dhl();
  EXPECT_GT(dhl, 4 * cpu);  // paper: ~7.7x at 64 B
  EXPECT_LT(cpu, 5.0);
  EXPECT_GT(dhl, 15.0);
}

TEST(Integration, NidsDetectsAttacksEndToEnd) {
  Testbed tb;
  auto* port = tb.add_port("p40g", Bandwidth::gbps(40));
  auto rules = std::make_shared<match::RuleSet>(
      match::RuleSet::builtin_snort_sample());
  auto automaton = NidsProcessor::build_automaton(*rules);
  auto& rt = tb.init_runtime(automaton);
  auto proc = std::make_shared<NidsProcessor>(rules, automaton);

  DhlNfConfig cfg;
  cfg.name = "nids-dhl";
  cfg.timing = tb.timing();
  cfg.hf_name = "pattern-matching";
  DhlOffloadNf nf{tb.sim(),
                  cfg,
                  {port},
                  rt,
                  [proc](netio::Mbuf& m) { return proc->dhl_prep(m); },
                  nids_dhl_prep_cost(tb.timing()),
                  [proc](netio::Mbuf& m) { return proc->dhl_post(m); },
                  nids_dhl_post_cost(tb.timing())};
  tb.run_for(milliseconds(40));
  ASSERT_TRUE(nf.ready());
  rt.start();
  nf.start();

  netio::TrafficConfig traffic;
  traffic.frame_len = 512;
  traffic.payload = netio::PayloadKind::kTextAttacks;
  traffic.attack_probability = 0.01;
  // Both strings belong to "ip any any" rules (sids 2001/2002), so every
  // embedded attack must alert regardless of L4 protocol/port.
  traffic.attack_strings = {"/bin/sh",
                            std::string("\x90\x90\x90\x90\x90\x90\x90\x90", 8)};
  port->start_traffic(traffic, 0.5);
  tb.measure(milliseconds(2), milliseconds(4));
  port->stop_traffic();
  tb.run_for(milliseconds(1));  // drain

  // Ground truth from the generator vs alerts raised.
  ASSERT_NE(port->factory(), nullptr);
  const std::uint64_t truth = port->factory()->attack_frames();
  EXPECT_GT(truth, 100u);
  EXPECT_GE(proc->stats().alerts, truth * 95 / 100);
  EXPECT_GT(proc->stats().scanned, 20'000u);
  const auto audit = tb.quiesce_ledger();
  EXPECT_TRUE(audit.clean()) << audit.to_string();
}

TEST(Integration, TwoNfsShareOneModuleWithoutCrosstalk) {
  // Fig 7a shape: two IPsec gateways on 10G ports, one shared ipsec-crypto.
  Testbed tb;
  auto* port_a = tb.add_port("a", Bandwidth::gbps(10));
  auto* port_b = tb.add_port("b", Bandwidth::gbps(10));
  auto& rt = tb.init_runtime();
  const auto sa = test_security_association();

  auto make_nf = [&](const std::string& name, netio::NicPort* port,
                     std::shared_ptr<IpsecProcessor> proc) {
    DhlNfConfig cfg;
    cfg.name = name;
    cfg.timing = tb.timing();
    cfg.hf_name = "ipsec-crypto";
    cfg.acc_config = accel::ipsec_module_config(false, sa);
    cfg.layout = CoreLayout::kPerPort;  // one core per port
    return std::make_unique<DhlOffloadNf>(
        tb.sim(), cfg, std::vector<netio::NicPort*>{port}, rt,
        [proc](netio::Mbuf& m) { return proc->dhl_prep(m); },
        ipsec_dhl_prep_cost(tb.timing()),
        [proc](netio::Mbuf& m) { return proc->dhl_post(m); },
        ipsec_dhl_post_cost(tb.timing()));
  };
  auto proc_a = std::make_shared<IpsecProcessor>(sa, IpsecPolicy{});
  auto proc_b = std::make_shared<IpsecProcessor>(sa, IpsecPolicy{});
  auto nf_a = make_nf("ipsec-a", port_a, proc_a);
  auto nf_b = make_nf("ipsec-b", port_b, proc_b);

  // One shared hardware-function entry (the second search hits the table).
  EXPECT_EQ(nf_a->stage_handle(1).acc_id, nf_b->stage_handle(1).acc_id);
  EXPECT_EQ(rt.function_table().snapshot().size(), 1u);

  tb.run_for(milliseconds(30));
  rt.start();
  nf_a->start();
  nf_b->start();
  netio::TrafficConfig ta;
  ta.frame_len = 512;
  ta.seed = 1;
  netio::TrafficConfig tb2 = ta;
  tb2.seed = 2;
  port_a->start_traffic(ta, 0.9);
  port_b->start_traffic(tb2, 0.9);
  tb.measure(milliseconds(3), milliseconds(5));

  // Both NFs run at ~9 Gbps; the shared module (65 Gbps) is not a bottleneck.
  EXPECT_NEAR(forwarded_wire_gbps(*port_a, 512, milliseconds(5)), 9.0, 0.5);
  EXPECT_NEAR(forwarded_wire_gbps(*port_b, 512, milliseconds(5)), 9.0, 0.5);
  EXPECT_EQ(
      rt.telemetry().metrics.snapshot().sum("dhl.runtime.obq_drops"), 0);
  EXPECT_EQ(
      rt.telemetry().metrics.snapshot().sum("dhl.runtime.error_records"), 0);
  EXPECT_EQ(proc_a->stats().auth_failures, 0u);
  EXPECT_EQ(proc_b->stats().auth_failures, 0u);
  const auto audit = tb.quiesce_ledger();
  EXPECT_TRUE(audit.clean()) << audit.to_string();
}

TEST(Integration, PartialReconfigurationDoesNotDisturbRunningNf) {
  // Paper V-E: start IPsec; while it runs, load pattern-matching.  No
  // throughput dip, no errors.
  Testbed tb;
  auto* port = tb.add_port("p40g", Bandwidth::gbps(40));
  auto rules = std::make_shared<match::RuleSet>(
      match::RuleSet::builtin_snort_sample());
  auto automaton = NidsProcessor::build_automaton(*rules);
  auto& rt = tb.init_runtime(automaton);
  const auto sa = test_security_association();
  auto proc = std::make_shared<IpsecProcessor>(sa, IpsecPolicy{});

  DhlNfConfig cfg;
  cfg.name = "ipsec-dhl";
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
  traffic.frame_len = 512;
  port->start_traffic(traffic, 0.9);
  tb.run_for(milliseconds(3));  // warm

  // Baseline window.
  tb.reset_port_stats();
  tb.run_for(milliseconds(3));
  const double before = port->tx_meter().wire_rate(milliseconds(3)).gbps();

  // Load the second module on the fly; measure during its ~28 ms PR window.
  const auto handle = rt.search_by_name("pattern-matching", 0);
  ASSERT_TRUE(handle.valid());
  tb.reset_port_stats();
  tb.run_for(milliseconds(3));
  const double during = port->tx_meter().wire_rate(milliseconds(3)).gbps();

  EXPECT_NEAR(during, before, before * 0.02);  // no degradation
  EXPECT_EQ(
      rt.telemetry().metrics.snapshot().sum("dhl.runtime.error_records"), 0);
  tb.run_for(milliseconds(40));
  EXPECT_TRUE(rt.acc_ready(handle));
  const auto audit = tb.quiesce_ledger();
  EXPECT_TRUE(audit.clean()) << audit.to_string();
}

// --- parked idle polls ----------------------------------------------------------
//
// Each testbed runs twice: as shipped, where idle DHL and NF lcores park,
// and with every poll of the transfer cores and the NF cores wrapped to
// clear PollResult::park, so they spin.  Every virtual result must agree.

struct ParkRun {
  std::uint64_t events = 0;
  /// Per port: TX frames, then latency count, p50, p99 and max.
  std::vector<std::array<std::uint64_t, 5>> ports;
  std::vector<double> stage_means;
  /// Busy, then idle cycles of each watched core.
  std::vector<std::array<double, 2>> cycles;
};

void spin(const std::vector<sim::Lcore*>& cores) {
  for (sim::Lcore* core : cores) {
    sim::Lcore::PollFn inner = core->poll_fn();
    core->set_poll([inner](sim::Lcore& c) {
      sim::PollResult r = inner(c);
      r.park = false;
      return r;
    });
  }
}

/// Run a 1 ms warm-up and a 2 ms window, then read the results and the
/// cycle accounts of `watched`.
ParkRun measure_park_run(Testbed& tb, const std::vector<sim::Lcore*>& watched) {
  tb.measure(milliseconds(1), milliseconds(2));
  ParkRun r;
  for (netio::NicPort* port : tb.port_ptrs()) {
    const sim::LatencyHistogram& lat = port->latency();
    r.ports.push_back({port->tx_meter().frames(), lat.count(),
                       lat.percentile(0.5), lat.percentile(0.99), lat.max()});
  }
  for (std::size_t s = 0; s < static_cast<std::size_t>(telemetry::Stage::kCount);
       ++s) {
    r.stage_means.push_back(
        tb.telemetry().stages.stage(static_cast<telemetry::Stage>(s)).mean());
  }
  for (const sim::Lcore* core : watched) {
    r.cycles.push_back({core->busy_cycles(), core->idle_cycles()});
  }
  r.events = tb.sim().executed();
  return r;
}

ParkRun ipsec_park_run(bool spinning) {
  Testbed tb;
  auto* port = tb.add_port("p40g", Bandwidth::gbps(40));
  auto& rt = tb.init_runtime();
  const auto sa = test_security_association();
  auto proc = std::make_shared<IpsecProcessor>(sa, IpsecPolicy{});
  DhlNfConfig cfg;
  cfg.name = "ipsec-dhl";
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
  tb.run_for(milliseconds(30));  // PR load
  rt.start();
  nf.start();
  if (spinning) {
    spin(rt.transfer_cores());
    spin(nf.cores());
  }
  netio::TrafficConfig traffic;
  traffic.frame_len = 512;
  port->start_traffic(traffic, 0.3);
  return measure_park_run(tb, {rt.transfer_cores().front()});
}

/// Two tenants' chains share the fused md5-auth -> aes256-ctr module on
/// IMIX traffic; bravo runs the per-port core layout under a byte cap.
ParkRun shared_chain_park_run(bool spinning) {
  Testbed tb;
  std::vector<netio::NicPort*> ports{tb.add_port("p0", Bandwidth::gbps(40)),
                                     tb.add_port("p1", Bandwidth::gbps(40))};
  auto& rt = tb.init_runtime();
  const TenantId alpha = rt.register_tenant("alpha", TenantQuota{});
  const TenantId bravo = rt.register_tenant(
      "bravo", TenantQuota{.outstanding_bytes_cap = 64 * 1024});
  std::vector<std::unique_ptr<ChainNf>> chains;
  for (std::size_t p = 0; p < ports.size(); ++p) {
    std::vector<ChainStage> stages;
    stages.push_back(
        ChainStage::offload("md5-auth", "md5-auth", {}, nullptr, nullptr));
    stages.push_back(ChainStage::offload(
        "aes256-ctr", "aes256-ctr", accel::aes256_ctr_test_config(),
        [](netio::Mbuf& m) {
          return m.accel_result() == accel::Aes256CtrModule::kOk
                     ? Verdict::kForward
                     : Verdict::kDrop;
        },
        [](const netio::Mbuf&) { return 30.0; }));
    ChainConfig cfg;
    cfg.name = p == 0 ? "chain-alpha" : "chain-bravo";
    cfg.timing = tb.timing();
    cfg.tenant = p == 0 ? alpha : bravo;
    cfg.layout = p == 0 ? CoreLayout::kSplit : CoreLayout::kPerPort;
    chains.push_back(std::make_unique<ChainNf>(
        tb.sim(), cfg, std::vector<netio::NicPort*>{ports[p]}, &rt,
        std::move(stages)));
  }
  for (int i = 0; i < 40 && !(chains[0]->ready() && chains[1]->ready()); ++i) {
    tb.run_for(milliseconds(5));
  }
  EXPECT_TRUE(chains[0]->ready() && chains[1]->ready());
  rt.start();
  for (auto& c : chains) c->start();
  if (spinning) {
    spin(rt.transfer_cores());
    for (auto& c : chains) spin(c->cores());
  }
  for (std::size_t p = 0; p < ports.size(); ++p) {
    netio::TrafficConfig traffic;
    traffic.size_mix = {{64, 7}, {570, 4}, {1500, 1}};
    traffic.seed = p + 1;
    ports[p]->start_traffic(traffic, p == 0 ? 0.3 : 0.6);
  }
  return measure_park_run(tb, {rt.transfer_cores().front()});
}

/// The CPU-only IPsec gateway of Fig 6 (pipeline mode) below its capacity.
ParkRun ipsec_cpu_park_run(bool spinning) {
  Testbed tb;
  auto* port = tb.add_port("p40g", Bandwidth::gbps(40));
  auto proc = std::make_shared<IpsecProcessor>(test_security_association(),
                                               IpsecPolicy{});
  ChainNf nf = ipsec_cpu_pipeline(tb, port, proc);
  nf.start();
  if (spinning) spin(nf.cores());
  netio::TrafficConfig traffic;
  traffic.frame_len = 512;
  port->start_traffic(traffic, 0.1);  // 4 Gbps of its ~6.4 Gbps
  return measure_park_run(tb, nf.cores());
}

/// The Fig 6 raw-I/O baseline: two run-to-completion cores on one port.
ParkRun io_park_run(bool spinning) {
  Testbed tb;
  auto* port = tb.add_port("p40g", Bandwidth::gbps(40));
  ChainNf nf{tb.sim(),
             ChainConfig{.name = "io", .timing = tb.timing(), .workers = 2},
             {port},
             nullptr,
             {ChainStage::cpu("io", io_fwd_fn(), zero_cost())}};
  nf.start();
  if (spinning) spin(nf.cores());
  netio::TrafficConfig traffic;
  traffic.frame_len = 1500;
  port->start_traffic(traffic, 1.0);
  return measure_park_run(tb, nf.cores());
}

void expect_park_equivalent(const std::function<ParkRun(bool)>& run) {
  const ParkRun parked = run(false);
  const ParkRun spinning = run(true);
  ASSERT_FALSE(parked.ports.empty());
  EXPECT_GT(parked.ports.front()[0], 1000u);
  EXPECT_EQ(parked.ports, spinning.ports);
  EXPECT_EQ(parked.stage_means, spinning.stage_means);
  EXPECT_EQ(parked.cycles, spinning.cycles);
  EXPECT_LE(parked.events * 5, spinning.events)
      << parked.events << " parked vs " << spinning.events << " spinning";
}

TEST(ParkEquivalence, IpsecGatewayAtAFixedLoad) {
  expect_park_equivalent(ipsec_park_run);
}

TEST(ParkEquivalence, TwoTenantFusedChain) {
  expect_park_equivalent(shared_chain_park_run);
}

TEST(ParkEquivalence, CpuOnlyIpsecPipeline) {
  expect_park_equivalent(ipsec_cpu_park_run);
}

TEST(ParkEquivalence, TwoCoreIoBaseline) {
  expect_park_equivalent(io_park_run);
}

}  // namespace
}  // namespace dhl::nf
