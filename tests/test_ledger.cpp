// LifecycleLedger: packet-conservation audit trail (DESIGN.md 3.4).
//
// Two layers:
//
//   LedgerUnit     -- the ledger's own semantics, driven directly: one
//                     lifecycle per tracked mbuf, exactly one terminal,
//                     violations (leak, premature release, double
//                     delivery, double track) each detected and counted.
//   LedgerRuntime  -- the wired-up runtime: a clean end-to-end run audits
//                     clean, and a *seeded* leak fails the audit -- the
//                     mutation check proving the teardown audits in the
//                     e2e/stress suites can actually fail.
//
// Every test skips in DHL_LEDGER=0 builds (Release): the stub ledger
// reports an empty, trivially clean audit, and a vacuous pass here would
// hide a miswired build.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "dhl/accel/catalog.hpp"
#include "dhl/netio/mempool.hpp"
#include "dhl/runtime/ledger.hpp"
#include "dhl/runtime/runtime.hpp"

namespace dhl::runtime {
namespace {

using netio::Mbuf;
using netio::MbufPool;

std::size_t stage_count(const LedgerAudit& audit, LedgerStage stage) {
  return static_cast<std::size_t>(
      audit.stage_entries[static_cast<std::size_t>(stage)]);
}

std::size_t drop_count(const LedgerAudit& audit, DropSite site) {
  return static_cast<std::size_t>(
      audit.dropped[static_cast<std::size_t>(site)]);
}

class LedgerUnit : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kLedgerCompiled) GTEST_SKIP() << "ledger compiled out (DHL_LEDGER=0)";
  }

  telemetry::TelemetryPtr telemetry_ = telemetry::make_telemetry();
  MbufPool pool_{"ledger-unit", 64, 2048, 0};
};

TEST_F(LedgerUnit, CleanDeliveryLifecycleAuditsClean) {
  LifecycleLedger ledger{*telemetry_};
  Mbuf* m = pool_.alloc();
  m->set_rx_timestamp(1);  // came off a NIC: nic.rx must be counted

  ledger.on_ingress(m);
  ledger.on_stage(m, LedgerStage::kPackerAppend);
  ledger.on_stage(m, LedgerStage::kDmaTx);
  ledger.on_stage(m, LedgerStage::kDmaTx);  // submit retry: idempotent
  ledger.on_stage(m, LedgerStage::kFpga);
  ledger.on_stage(m, LedgerStage::kDmaRx);
  ledger.on_stage(m, LedgerStage::kDistributor);
  ledger.on_delivered(m);
  m->release();  // the NF consumed it: end of life, not a violation

  const LedgerAudit audit = ledger.audit();
  EXPECT_TRUE(audit.clean()) << audit.to_string();
  EXPECT_EQ(audit.tracked, 1u);
  EXPECT_EQ(audit.delivered, 1u);
  EXPECT_EQ(audit.live, 0u);
  EXPECT_EQ(stage_count(audit, LedgerStage::kNicRx), 1u);
  EXPECT_EQ(stage_count(audit, LedgerStage::kIbq), 1u);
  EXPECT_EQ(stage_count(audit, LedgerStage::kDmaTx), 1u);  // retry deduped
  EXPECT_EQ(stage_count(audit, LedgerStage::kObq), 1u);
  EXPECT_EQ(stage_count(audit, LedgerStage::kNf), 1u);
}

TEST_F(LedgerUnit, DropIsATerminal) {
  LifecycleLedger ledger{*telemetry_};
  Mbuf* m = pool_.alloc();
  ledger.on_ingress(m);
  ledger.on_drop(m, DropSite::kUnready);
  m->release();

  const LedgerAudit audit = ledger.audit();
  EXPECT_TRUE(audit.clean()) << audit.to_string();
  EXPECT_EQ(audit.tracked, 1u);
  EXPECT_EQ(audit.delivered, 0u);
  EXPECT_EQ(drop_count(audit, DropSite::kUnready), 1u);
  // No RX timestamp was set, so nic.rx stays zero.
  EXPECT_EQ(stage_count(audit, LedgerStage::kNicRx), 0u);
}

TEST_F(LedgerUnit, SeededLeakFailsAudit) {
  LifecycleLedger ledger{*telemetry_};
  Mbuf* m = pool_.alloc();
  ledger.on_ingress(m);
  ledger.on_stage(m, LedgerStage::kPackerAppend);
  // No terminal: the packet vanished mid-pipeline.

  const LedgerAudit audit = ledger.audit();
  EXPECT_FALSE(audit.clean()) << "a leaked packet must fail the audit";
  EXPECT_EQ(audit.live, 1u);
  ASSERT_EQ(audit.leaks.size(), 1u);
  EXPECT_EQ(audit.leaks[0].mbuf, m);
  EXPECT_EQ(audit.leaks[0].stage, LedgerStage::kPackerAppend);

  ledger.on_drop(m, DropSite::kUnready);  // resolve before releasing
  m->release();
}

TEST_F(LedgerUnit, PrematureReleaseFlagged) {
  LifecycleLedger ledger{*telemetry_};
  Mbuf* m = pool_.alloc();
  ledger.on_ingress(m);
  m->release();  // freed while the ledger still has it in flight

  const LedgerAudit audit = ledger.audit();
  EXPECT_FALSE(audit.clean()) << audit.to_string();
  EXPECT_EQ(audit.premature_release, 1u);
  EXPECT_EQ(audit.live, 0u);  // the release closed the record
}

TEST_F(LedgerUnit, DoubleDeliveryFlagged) {
  LifecycleLedger ledger{*telemetry_};
  Mbuf* m = pool_.alloc();
  ledger.on_ingress(m);
  ledger.on_delivered(m);
  ledger.on_delivered(m);  // a second terminal for the same lifecycle
  m->release();

  const LedgerAudit audit = ledger.audit();
  EXPECT_FALSE(audit.clean()) << audit.to_string();
  EXPECT_EQ(audit.double_terminal, 1u);
  EXPECT_EQ(audit.delivered, 1u);  // only the first terminal counts
}

TEST_F(LedgerUnit, DoubleTrackFlagged) {
  LifecycleLedger ledger{*telemetry_};
  Mbuf* m = pool_.alloc();
  ledger.on_ingress(m);
  ledger.on_ingress(m);  // still open: duplication, not a re-send

  const LedgerAudit audit = ledger.audit();
  EXPECT_FALSE(audit.clean()) << audit.to_string();
  EXPECT_EQ(audit.double_track, 1u);

  ledger.on_drop(m, DropSite::kUnready);
  m->release();
}

TEST_F(LedgerUnit, RedeliveredPacketOpensFreshLifecycle) {
  // Chained NFs re-send delivered packets; that is two lifecycles, both
  // legal, not a double track.
  LifecycleLedger ledger{*telemetry_};
  Mbuf* m = pool_.alloc();
  ledger.on_ingress(m);
  ledger.on_delivered(m);
  ledger.on_ingress(m);  // closed lifecycle re-enters: fresh one
  ledger.on_delivered(m);
  m->release();

  const LedgerAudit audit = ledger.audit();
  EXPECT_TRUE(audit.clean()) << audit.to_string();
  EXPECT_EQ(audit.tracked, 2u);
  EXPECT_EQ(audit.delivered, 2u);
  EXPECT_EQ(audit.double_track, 0u);
}

TEST_F(LedgerUnit, OrphanTerminalFlagged) {
  LifecycleLedger ledger{*telemetry_};
  Mbuf* m = pool_.alloc();
  ledger.on_delivered(m);  // never tracked
  m->release();

  const LedgerAudit audit = ledger.audit();
  EXPECT_FALSE(audit.clean()) << audit.to_string();
  EXPECT_EQ(audit.orphan_terminal, 1u);
}

// ---------------------------------------------------------------------------

class LedgerRuntime : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kLedgerCompiled) GTEST_SKIP() << "ledger compiled out (DHL_LEDGER=0)";
  }
};

struct E2eOutcome {
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
};

/// Loopback round trips on the replicated two-socket topology, ledger on,
/// returning the outcome with `rt` kept alive for auditing.
E2eOutcome run_traffic(sim::Simulator& sim, DhlRuntime& rt, MbufPool& pool,
                       const AccHandle& a, netio::NfId nf0, netio::NfId nf1) {
  E2eOutcome out;
  constexpr std::uint32_t kLen = 100;
  Mbuf* burst[64];
  const auto drain = [&](netio::NfId nf) {
    std::size_t got;
    while ((got = DhlRuntime::receive_packets(rt.get_private_obq(nf), burst,
                                              64)) > 0) {
      for (std::size_t i = 0; i < got; ++i) burst[i]->release();
      out.received += got;
    }
  };
  for (int wave = 0; wave < 60; ++wave) {
    for (const netio::NfId nf : {nf0, nf1}) {
      for (int i = 0; i < 8; ++i) {
        Mbuf* m = pool.alloc();
        m->assign(std::vector<std::uint8_t>(kLen, 0x5a));
        m->set_nf_id(nf);
        m->set_acc_id(a.acc_id);
        m->set_rx_timestamp(sim.now() == 0 ? 1 : sim.now());
        if (rt.send_packets(nf, &m, 1) == 1) {
          ++out.sent;
        } else {
          m->release();
        }
      }
    }
    sim.run_until(sim.now() + microseconds(20));
    drain(nf0);
    drain(nf1);
  }
  sim.run_until(sim.now() + milliseconds(5));
  drain(nf0);
  drain(nf1);
  rt.stop();
  return out;
}

TEST_F(LedgerRuntime, EndToEndRunAuditsClean) {
  sim::Simulator sim;
  RuntimeConfig cfg;
  std::vector<std::unique_ptr<fpga::FpgaDevice>> fpgas;
  std::vector<fpga::FpgaDevice*> ptrs;
  for (int i = 0; i < 2; ++i) {
    fpga::FpgaDeviceConfig fc;
    fc.fpga_id = i;
    fc.name = "fpga" + std::to_string(i);
    fc.socket = i;
    fpgas.push_back(std::make_unique<fpga::FpgaDevice>(sim, fc));
    ptrs.push_back(fpgas.back().get());
  }
  DhlRuntime rt{sim, cfg, accel::standard_module_database(nullptr),
                std::move(ptrs)};
  MbufPool pool{"ledger-e2e", 8192, 2048, 0};
  const netio::NfId nf0 = rt.register_nf("nf0", 0);
  const netio::NfId nf1 = rt.register_nf("nf1", 1);
  const AccHandle a = rt.search_by_name("loopback", 0);
  EXPECT_EQ(rt.replicate("loopback", 2), 2u);
  sim.run_until(sim.now() + milliseconds(20));
  ASSERT_TRUE(rt.acc_ready(a));
  rt.start();

  const E2eOutcome out = run_traffic(sim, rt, pool, a, nf0, nf1);
  ASSERT_GT(out.sent, 0u);
  EXPECT_EQ(out.sent, out.received);

  const LedgerAudit audit = rt.ledger().audit();
  EXPECT_TRUE(audit.clean()) << audit.to_string();
  EXPECT_EQ(audit.tracked, out.sent);
  EXPECT_EQ(audit.delivered, out.received);
  EXPECT_EQ(audit.dropped_total(), 0u);
  // Per-stage conservation: every packet passed every pipeline stage.
  for (const LedgerStage stage :
       {LedgerStage::kNicRx, LedgerStage::kIbq, LedgerStage::kPackerAppend,
        LedgerStage::kDmaTx, LedgerStage::kFpga, LedgerStage::kDmaRx,
        LedgerStage::kDistributor, LedgerStage::kObq, LedgerStage::kNf}) {
    EXPECT_EQ(stage_count(audit, stage), out.sent)
        << "stage " << to_string(stage);
  }
  EXPECT_EQ(stage_count(audit, LedgerStage::kFallback), 0u);

  // Telemetry mirrors: dhl.ledger.* agree with the audit.
  const auto snap = rt.telemetry().metrics.snapshot();
  EXPECT_EQ(static_cast<std::uint64_t>(snap.sum("dhl.ledger.tracked")),
            audit.tracked);
  EXPECT_EQ(static_cast<std::uint64_t>(snap.sum("dhl.ledger.delivered")),
            audit.delivered);
  EXPECT_EQ(static_cast<std::uint64_t>(snap.sum("dhl.ledger.violations")), 0u);
}

TEST_F(LedgerRuntime, SeededLeakFailsRuntimeAudit) {
  // Mutation check for every suite that asserts audit().clean() at
  // teardown: introduce exactly the bug class the ledger hunts (a packet
  // that enters the runtime and never reaches a terminal) and require the
  // audit to catch it.
  sim::Simulator sim;
  RuntimeConfig cfg;
  cfg.num_sockets = 1;
  fpga::FpgaDeviceConfig fc;
  fc.fpga_id = 0;
  fc.name = "fpga0";
  fc.socket = 0;
  fpga::FpgaDevice dev{sim, fc};
  DhlRuntime rt{sim, cfg, accel::standard_module_database(nullptr), {&dev}};
  MbufPool pool{"ledger-leak", 64, 2048, 0};

  EXPECT_TRUE(rt.ledger().audit().clean());
  Mbuf* leaked = pool.alloc();
  rt.ledger().on_ingress(leaked);  // seeded: tracked, never terminated

  const LedgerAudit audit = rt.ledger().audit();
  EXPECT_FALSE(audit.clean()) << "seeded leak must fail the audit";
  EXPECT_EQ(audit.live, 1u);
  ASSERT_EQ(audit.leaks.size(), 1u);
  EXPECT_EQ(audit.leaks[0].mbuf, leaked);

  rt.ledger().on_drop(leaked, DropSite::kUnready);
  leaked->release();
  EXPECT_TRUE(rt.ledger().audit().clean());
}

}  // namespace
}  // namespace dhl::runtime
