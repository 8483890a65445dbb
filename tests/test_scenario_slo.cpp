// End-to-end scenario/SLO behavior (DESIGN.md section 3.6): the flash-crowd
// overload must trip the watchdog and recover through hysteresis (dumping the
// breach window to the flight recorder), the fault-soak and quota-storm
// scenarios must hold their budgets under adversity, and a total device
// outage must ride the SIMD CPU fallback rather than blackhole traffic.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "dhl/common/check.hpp"
#include "dhl/common/config_file.hpp"
#include "dhl/nf/nids.hpp"
#include "dhl/nf/testbed.hpp"
#include "dhl/telemetry/metrics.hpp"
#include "dhl/workload/scenario.hpp"

namespace dhl::workload {
namespace {

/// `name` from the committed matrix, bench/scenarios.conf.
ScenarioSpec default_spec(const std::string& name) {
  common::ConfigFile file;
  DHL_CHECK_MSG(file.load_file(DHL_SCENARIOS_CONF),
                "cannot read " << DHL_SCENARIOS_CONF);
  const std::vector<ScenarioSpec> all = parse_scenarios(file);
  const auto it = std::find_if(all.begin(), all.end(), [&](const auto& s) {
    return s.name == name;
  });
  DHL_CHECK_MSG(it != all.end(), "scenario missing from bench/scenarios.conf");
  return *it;
}

TEST(ScenarioSlo, FlashCrowdBreachesThenRecovers) {
  // The designed overload: 1500B frames ramped to line rate exceed the
  // pattern-matching module's 32.4 Gbps capacity, so the watchdog must
  // enter the breached state -- and must exit it again once the ramp ends
  // (hysteresis), with the breach window dumped by the flight recorder.
  const char* dump = "test_scenario_flight.json";
  std::filesystem::remove(dump);

  ScenarioRunner runner{{.flight_dump_path = dump}};
  const ScenarioResult r = runner.run(default_spec("flash-crowd"));

  EXPECT_EQ(r.expect, "breach");
  EXPECT_TRUE(r.pass) << r.detail;
  EXPECT_GE(r.breach_episodes, 1u);
  EXPECT_FALSE(r.final_breached);  // recovered before the run ended
  EXPECT_TRUE(r.ledger_clean);
  EXPECT_TRUE(r.tenants_clean);
  EXPECT_TRUE(r.tenants_drained);
  // Breach entry auto-dumps the black box.
  EXPECT_TRUE(std::filesystem::exists(dump));
  std::filesystem::remove(dump);
}

TEST(ScenarioSlo, FaultSoakHoldsBudgetsUnderInjectedFaults) {
  const ScenarioResult r = ScenarioRunner{}.run(default_spec("fault-soak"));
  EXPECT_TRUE(r.pass) << r.detail;
  EXPECT_GT(r.faults_injected, 0u);  // the overlay actually misbehaved
  EXPECT_EQ(r.breach_episodes, 0u);  // retries absorbed it within budget
  EXPECT_TRUE(r.ledger_clean);
  EXPECT_TRUE(r.tenants_drained);
}

TEST(ScenarioSlo, QuotaStormRejectsFlooderNotPrimary) {
  const ScenarioResult r = ScenarioRunner{}.run(default_spec("quota-storm"));
  EXPECT_TRUE(r.pass) << r.detail;
  // The flooder tenant hit its quota wall...
  EXPECT_GT(r.background_admitted, 0u);
  EXPECT_GT(r.background_rejected, 0u);
  // ...while the primary tenant's SLO (including a zero drop budget) held.
  EXPECT_EQ(r.breach_episodes, 0u);
  EXPECT_TRUE(r.tenants_clean);
}

TEST(ScenarioSlo, ChainFlashCrowdBreachesThenRecovers) {
  // The fused compression+aes256-ctr service chain under the flash-crowd
  // ramp: full-MTU payload at line rate exceeds the compression stage's
  // 24 Gbps fabric rate, so the chain itself is the bottleneck and the
  // watchdog must see the breach and the hysteresis recovery.
  const ScenarioResult r =
      ScenarioRunner{}.run(default_spec("chain-flash-crowd"));
  EXPECT_EQ(r.expect, "breach");
  EXPECT_TRUE(r.pass) << r.detail;
  EXPECT_GE(r.breach_episodes, 1u);
  EXPECT_FALSE(r.final_breached);
  EXPECT_TRUE(r.ledger_clean);
  EXPECT_TRUE(r.tenants_clean);
  EXPECT_TRUE(r.tenants_drained);
}

TEST(ScenarioSlo, ChainFaultSoakStaysCleanUnderDmaFaults) {
  // DMA submit timeouts against the fused chain: retries absorb the
  // faults within the relaxed tail budgets, and whatever terminally drops
  // is counted in the ledger rather than leaking.
  const ScenarioResult r =
      ScenarioRunner{}.run(default_spec("chain-fault-soak"));
  EXPECT_TRUE(r.pass) << r.detail;
  EXPECT_GT(r.faults_injected, 0u);
  EXPECT_EQ(r.breach_episodes, 0u);
  EXPECT_GT(r.forwarded, 0u);
  EXPECT_TRUE(r.ledger_clean);
  EXPECT_TRUE(r.tenants_drained);
}

TEST(ScenarioSlo, DeviceOutageRidesSimdFallback) {
  // Quarantine every replica from t=0 (device_unhealthy at probability 1)
  // and require the run to stay clean: traffic must flow through the
  // registered CPU fallback -- the multi-lane Aho-Corasick kernel -- not
  // vanish at the submit site.
  ScenarioSpec spec;
  spec.name = "device-outage";
  spec.workload.arrival.offered = 0.15;
  spec.workload.flow.flows = 64;
  spec.warmup = milliseconds(2);
  spec.window = milliseconds(6);
  spec.settle = milliseconds(5);
  spec.p99_ceiling = microseconds(500);
  spec.fault.enabled = true;
  spec.fault.site = "fpga.device";
  spec.fault.kind = "device_unhealthy";
  spec.fault.probability = 1.0;

  const ScenarioResult r = ScenarioRunner{}.run(spec);
  EXPECT_TRUE(r.pass) << r.detail;
  EXPECT_GT(r.faults_injected, 0u);
  EXPECT_GT(r.fallback_pkts, 0u);
  EXPECT_GT(r.forwarded, 0u);
  EXPECT_TRUE(r.ledger_clean);

  // The fallback executes through the runtime-dispatched SIMD kernels:
  // the registry a runtime-bearing testbed exposes must carry the
  // dhl.simd.kernel_isa gauge for the multi-lane matcher.
  nf::Testbed tb;
  tb.add_port("p0", Bandwidth::gbps(40));
  const auto rules = std::make_shared<match::RuleSet>(
      match::RuleSet::builtin_snort_sample());
  tb.init_runtime(nf::NidsProcessor::build_automaton(*rules));
  const telemetry::MetricsSnapshot snap = tb.telemetry().metrics.snapshot();
  const telemetry::MetricSample* g =
      snap.find("dhl.simd.kernel_isa", {{"kernel", "ac_multilane"}});
  ASSERT_NE(g, nullptr);
  EXPECT_GE(g->value, 0.0);  // ISA tier ordinal (scalar when capped)
}

}  // namespace
}  // namespace dhl::workload
