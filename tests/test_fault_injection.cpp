// Fault-injection tests (DESIGN.md section 3.3): one case per fault site x
// recovery path, all on fixed seeds so every schedule is reproducible.
//
//   dma.submit      -> bounded retry with exponential backoff; exhaustion
//                      degrades the replica and redirects or drops (no
//                      fallback here); a partial transfer meets the CRC gate
//   dma.completion  -> the Distributor's CRC/structural gate drops the batch
//                      whole, never desynchronizing records and mbufs
//   pr.load         -> the HwFunctionTable rolls the slot back cleanly and
//                      the part is immediately reusable
//   fpga.device     -> quarantine -> probation -> re-admit on the virtual
//                      clock, driven lazily from the dispatch path

#include <gtest/gtest.h>

#include "dhl/accel/catalog.hpp"
#include "dhl/fpga/fault_hook.hpp"
#include "dhl/netio/mempool.hpp"
#include "dhl/runtime/api.hpp"
#include "dhl/runtime/fault.hpp"
#include "dhl/runtime/runtime.hpp"

namespace dhl::runtime {
namespace {

using fpga::FaultKind;
using fpga::FaultSite;
using fpga::FpgaDevice;
using netio::Mbuf;
using netio::MbufPool;

struct Harness {
  sim::Simulator sim;
  std::vector<std::unique_ptr<FpgaDevice>> fpgas;
  std::unique_ptr<DhlRuntime> rt;
  MbufPool pool{"test", 8192, 2048, 0};

  explicit Harness(int num_fpgas = 1, RuntimeConfig cfg = {}) {
    std::vector<FpgaDevice*> ptrs;
    for (int i = 0; i < num_fpgas; ++i) {
      fpga::FpgaDeviceConfig fc;
      fc.fpga_id = i;
      fc.name = "fpga" + std::to_string(i);
      fc.socket = i % cfg.num_sockets;
      fpgas.push_back(std::make_unique<FpgaDevice>(sim, fc));
      ptrs.push_back(fpgas.back().get());
    }
    rt = std::make_unique<DhlRuntime>(
        sim, cfg, accel::standard_module_database(nullptr), std::move(ptrs));
  }

  ~Harness() {
    // Every fault scenario must still conserve packets: delivered or
    // counted at a drop site, never leaked.
    if (kLedgerCompiled && rt != nullptr) {
      const LedgerAudit audit = rt->ledger().audit();
      EXPECT_TRUE(audit.clean()) << audit.to_string();
    }
  }

  Mbuf* make_pkt(netio::NfId nf, netio::AccId acc, std::uint32_t len) {
    Mbuf* m = pool.alloc();
    m->assign(std::vector<std::uint8_t>(len, 0x42));
    m->set_nf_id(nf);
    m->set_acc_id(acc);
    m->set_rx_timestamp(sim.now() == 0 ? 1 : sim.now());
    return m;
  }

  std::size_t send(netio::NfId nf, netio::AccId acc, std::size_t n,
                   std::uint32_t len = 100) {
    std::size_t accepted = 0;
    for (std::size_t i = 0; i < n; ++i) {
      Mbuf* m = make_pkt(nf, acc, len);
      if (rt->send_packets(nf, &m, 1) == 1) {
        ++accepted;
      } else {
        m->release();
      }
    }
    return accepted;
  }

  std::size_t drain(netio::NfId nf) {
    Mbuf* out[64];
    std::size_t total = 0;
    for (;;) {
      const std::size_t n =
          DhlRuntime::receive_packets(rt->get_private_obq(nf), out, 64);
      if (n == 0) break;
      for (std::size_t i = 0; i < n; ++i) out[i]->release();
      total += n;
    }
    return total;
  }

  double metric(std::string_view name, const telemetry::Labels& labels = {}) {
    return rt->telemetry().metrics.snapshot().sum(name, labels);
  }

  /// Every flight account is settled: no replica holds outstanding bytes,
  /// no tenant holds queued or in-flight bytes or batches, and no packet
  /// is in flight.
  void expect_flight_settled() {
    for (const HwFunctionEntry& row : rt->function_table().snapshot()) {
      EXPECT_EQ(row.outstanding_bytes, 0u)
          << row.hf_name << " on fpga " << row.fpga_id;
    }
    EXPECT_TRUE(rt->tenants().drained());
    EXPECT_EQ(rt->in_flight(), 0u);
  }
};

/// Loads loopback, waits for PR, starts the transfer cores.
struct ReadyHarness : Harness {
  netio::NfId nf;
  AccHandle acc;

  ReadyHarness() {
    nf = rt->register_nf("nf0", 0);
    acc = rt->search_by_name("loopback", 0);
    sim.run_until(sim.now() + milliseconds(10));
    EXPECT_TRUE(rt->acc_ready(acc));
    rt->start();
  }
};

/// Two loopback replicas, one per board.  Only FPGA 0 misbehaves: it loses
/// its first four doorbells, so the first batch exhausts its retry budget
/// there and is redirected to the clean replica on FPGA 1.
struct RedirectHarness : Harness {
  netio::NfId nf;
  AccHandle acc;
  FaultInjector inj{sim, rt->telemetry(), /*seed=*/9};

  explicit RedirectHarness(RuntimeConfig cfg = {}) : Harness{2, cfg} {
    nf = rt->register_nf("nf0", 0);
    acc = rt->search_by_name("loopback", 0);
    EXPECT_EQ(rt->replicate("loopback", 2), 2u);
    sim.run_until(sim.now() + milliseconds(20));
    rt->start();
    rt->set_fault_injector(&inj);
    inj.add_rule({.site = FaultSite::kDmaSubmit,
                  .kind = FaultKind::kSubmitTimeout,
                  .fpga_id = 0,
                  .max_count = 4});
  }
};

// --- dma.submit -------------------------------------------------------------

TEST(FaultDmaSubmit, TimeoutRetriesThenSucceeds) {
  ReadyHarness h;
  FaultInjector inj{h.sim, h.rt->telemetry(), /*seed=*/42};
  h.rt->set_fault_injector(&inj);
  // First two submit attempts of the first batch time out; the third lands.
  inj.add_rule({.site = FaultSite::kDmaSubmit,
                .kind = FaultKind::kSubmitTimeout,
                .max_count = 2});

  ASSERT_EQ(h.send(h.nf, h.acc.acc_id, 8), 8u);
  h.sim.run_until(h.sim.now() + milliseconds(1));

  EXPECT_EQ(h.drain(h.nf), 8u);  // retry recovered everything
  EXPECT_EQ(inj.injected(FaultSite::kDmaSubmit), 2u);
  EXPECT_EQ(h.metric("dhl.dma.retries"), 2.0);
  EXPECT_EQ(h.metric("dhl.fault.injected", {{"site", "dma.submit"}}), 2.0);
  // Retries that succeed are not failures: the replica stays healthy.
  EXPECT_EQ(h.rt->function_table().entry_for(h.acc.acc_id)->health,
            ReplicaHealth::kHealthy);
  EXPECT_EQ(h.rt->in_flight(), 0u);
  EXPECT_EQ(h.pool.in_use(), 0u);
}

TEST(FaultDmaSubmit, RetryBudgetExhaustionDegradesReplica) {
  ReadyHarness h;
  FaultInjector inj{h.sim, h.rt->telemetry(), /*seed=*/42};
  h.rt->set_fault_injector(&inj);
  // One full retry budget: the initial attempt plus all 3 retries fail.
  inj.add_rule({.site = FaultSite::kDmaSubmit,
                .kind = FaultKind::kSubmitTimeout,
                .max_count = 4});

  ASSERT_EQ(h.send(h.nf, h.acc.acc_id, 8), 8u);
  h.sim.run_until(h.sim.now() + milliseconds(1));

  // Exhaustion: no other replica, no fallback -> counted drop, one ladder
  // step down.
  EXPECT_EQ(h.drain(h.nf), 0u);
  EXPECT_EQ(h.metric("dhl.runtime.submit_drop_pkts"), 8.0);
  HwFunctionEntry* e = h.rt->function_table().entry_for(h.acc.acc_id);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->health, ReplicaHealth::kDegraded);
  EXPECT_EQ(e->consecutive_failures, 1u);
  EXPECT_EQ(h.pool.in_use(), 0u);
  h.expect_flight_settled();

  // Degraded is still dispatchable (last resort); one clean batch re-heals.
  ASSERT_EQ(h.send(h.nf, h.acc.acc_id, 8), 8u);
  h.sim.run_until(h.sim.now() + milliseconds(1));
  EXPECT_EQ(h.drain(h.nf), 8u);
  EXPECT_EQ(e->health, ReplicaHealth::kHealthy);
  EXPECT_EQ(e->consecutive_failures, 0u);
  h.expect_flight_settled();
}

TEST(FaultDmaSubmit, PartialTransferIsDroppedWholeAtTheCrcGate) {
  // A partial transfer is not a lost doorbell: the submit goes through
  // (no retry) with its tail cut after the checksum stamp, the device
  // bounces it unprocessed and the Distributor's gate drops it whole,
  // blaming the replica once.
  ReadyHarness h;
  FaultInjector inj{h.sim, h.rt->telemetry(), /*seed=*/42};
  h.rt->set_fault_injector(&inj);
  inj.add_rule({.site = FaultSite::kDmaSubmit,
                .kind = FaultKind::kPartialTransfer,
                .max_count = 1});

  ASSERT_EQ(h.send(h.nf, h.acc.acc_id, 8), 8u);
  h.sim.run_until(h.sim.now() + milliseconds(1));

  EXPECT_EQ(h.drain(h.nf), 0u);
  EXPECT_EQ(inj.injected(FaultSite::kDmaSubmit), 1u);
  EXPECT_EQ(h.metric("dhl.dma.retries"), 0.0);
  EXPECT_EQ(h.metric("dhl.batch.crc_drops"), 1.0);
  EXPECT_EQ(h.metric("dhl.batch.crc_drop_pkts"), 8.0);
  const HwFunctionEntry* e = h.rt->function_table().entry_for(h.acc.acc_id);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->consecutive_failures, 1u);
  EXPECT_EQ(h.pool.in_use(), 0u);
  h.expect_flight_settled();
}

// --- dma.completion ---------------------------------------------------------

TEST(FaultDmaCompletion, CorruptionDropsBatchWholeAndCounts) {
  // All three completion-side corruptions must be caught by the
  // Distributor's integrity gate: the batch is dropped whole (no partial
  // delivery, no record/mbuf desync) and the next clean batch flows.
  for (const FaultKind kind :
       {FaultKind::kCorruptHeader, FaultKind::kFlipUnmodifiedFlag,
        FaultKind::kTruncateTail}) {
    SCOPED_TRACE(fpga::to_string(kind));
    ReadyHarness h;
    FaultInjector inj{h.sim, h.rt->telemetry(), /*seed=*/7};
    h.rt->set_fault_injector(&inj);
    inj.add_rule({.site = FaultSite::kDmaCompletion,
                  .kind = kind,
                  .max_count = 1});

    ASSERT_EQ(h.send(h.nf, h.acc.acc_id, 8), 8u);
    h.sim.run_until(h.sim.now() + milliseconds(1));

    EXPECT_EQ(h.drain(h.nf), 0u);
    EXPECT_EQ(inj.injected(FaultSite::kDmaCompletion), 1u);
    EXPECT_EQ(h.metric("dhl.batch.crc_drops"), 1.0);
    EXPECT_EQ(h.metric("dhl.batch.crc_drop_pkts"), 8.0);
    // Dropped mbufs were released, nothing is stuck in flight.
    EXPECT_EQ(h.pool.in_use(), 0u);
    h.expect_flight_settled();

    // The OBQ stayed consistent: a clean follow-up batch is delivered
    // intact and the replica re-heals.
    ASSERT_EQ(h.send(h.nf, h.acc.acc_id, 8), 8u);
    h.sim.run_until(h.sim.now() + milliseconds(1));
    EXPECT_EQ(h.drain(h.nf), 8u);
    EXPECT_EQ(h.rt->function_table().entry_for(h.acc.acc_id)->health,
              ReplicaHealth::kHealthy);
    EXPECT_EQ(h.pool.in_use(), 0u);
    h.expect_flight_settled();
  }
}

// --- pr.load ----------------------------------------------------------------

TEST(FaultPrLoad, FailureRollsTableSlotBackCleanly) {
  Harness h;
  FaultInjector inj{h.sim, h.rt->telemetry(), /*seed=*/3};
  h.rt->set_fault_injector(&inj);
  inj.add_rule(
      {.site = FaultSite::kPrLoad, .kind = FaultKind::kPrFail, .max_count = 1});

  const AccHandle a = h.rt->search_by_name("loopback", 0);
  ASSERT_TRUE(a.valid());
  h.sim.run_until(h.sim.now() + milliseconds(10));

  // ICAP failed: the slot rolled back, the handle never becomes ready.
  EXPECT_FALSE(h.rt->acc_ready(a));
  EXPECT_TRUE(h.rt->function_table().snapshot().empty());
  EXPECT_EQ(h.fpgas[0]->pr_failures(), 1u);
  EXPECT_EQ(inj.injected(FaultSite::kPrLoad), 1u);
  // The part reverted to empty: resources are back to the static region.
  EXPECT_EQ(h.fpgas[0]->used_resources().luts,
            h.fpgas[0]->config().static_region.luts);

  // The region is immediately reusable; the reload (no fault left) works.
  const AccHandle b = h.rt->search_by_name("loopback", 0);
  ASSERT_TRUE(b.valid());
  h.sim.run_until(h.sim.now() + milliseconds(10));
  EXPECT_TRUE(h.rt->acc_ready(b));
}

TEST(FaultPrLoad, SlowLoadDelaysReadiness) {
  Harness h;
  FaultInjector inj{h.sim, h.rt->telemetry(), /*seed=*/3};
  h.rt->set_fault_injector(&inj);
  inj.add_rule({.site = FaultSite::kPrLoad,
                .kind = FaultKind::kPrSlow,
                .max_count = 1,
                .delay = milliseconds(20)});

  const AccHandle a = h.rt->search_by_name("loopback", 0);
  ASSERT_TRUE(a.valid());
  // 10 ms is plenty for a normal loopback PR (see the eviction tests), but
  // the injected ICAP stall adds 20 ms on the virtual clock.
  h.sim.run_until(h.sim.now() + milliseconds(10));
  EXPECT_FALSE(h.rt->acc_ready(a));
  h.sim.run_until(h.sim.now() + milliseconds(25));
  EXPECT_TRUE(h.rt->acc_ready(a));
  EXPECT_EQ(h.fpgas[0]->pr_failures(), 0u);  // slow, not failed
}

// --- fpga.device: the full ladder -------------------------------------------

TEST(FaultDevice, QuarantineProbationReadmitCycle) {
  ReadyHarness h;
  FaultInjector inj{h.sim, h.rt->telemetry(), /*seed=*/11};
  h.rt->set_fault_injector(&inj);
  // Exactly 3 exhausted retry budgets (4 failed attempts each): the
  // consecutive-failure streak crosses the quarantine threshold.
  inj.add_rule({.site = FaultSite::kDmaSubmit,
                .kind = FaultKind::kSubmitTimeout,
                .max_count = 12});

  HwFunctionEntry* e = h.rt->function_table().entry_for(h.acc.acc_id);
  ASSERT_NE(e, nullptr);
  for (int round = 0; round < 3; ++round) {
    ASSERT_EQ(h.send(h.nf, h.acc.acc_id, 8), 8u);
    h.sim.run_until(h.sim.now() + microseconds(100));
  }
  EXPECT_EQ(e->health, ReplicaHealth::kQuarantined);
  EXPECT_EQ(h.metric("dhl.replica.state", {{"hf", "loopback"}}), 2.0);
  EXPECT_EQ(h.metric("dhl.runtime.submit_drop_pkts"), 24.0);

  // Inside the quarantine period nothing is dispatchable: packets are
  // refused at ingest (counted, not leaked), the replica is left alone.
  ASSERT_EQ(h.send(h.nf, h.acc.acc_id, 8), 8u);
  h.sim.run_until(h.sim.now() + microseconds(100));
  EXPECT_EQ(h.drain(h.nf), 0u);
  EXPECT_EQ(h.metric("dhl.runtime.submit_drop_pkts"), 32.0);
  EXPECT_EQ(e->health, ReplicaHealth::kQuarantined);

  // Once the quarantine period elapses on the virtual clock, the next
  // dispatch check promotes to probation; the (now clean) batch succeeds
  // and the replica re-heals.
  h.sim.run_until(h.sim.now() + microseconds(600));
  ASSERT_EQ(h.send(h.nf, h.acc.acc_id, 8), 8u);
  h.sim.run_until(h.sim.now() + milliseconds(1));
  EXPECT_EQ(h.drain(h.nf), 8u);
  EXPECT_EQ(e->health, ReplicaHealth::kHealthy);
  EXPECT_EQ(h.metric("dhl.replica.state", {{"hf", "loopback"}}), 0.0);
  EXPECT_EQ(h.rt->in_flight(), 0u);
  EXPECT_EQ(h.pool.in_use(), 0u);
}

TEST(FaultDevice, UnhealthyDeviceQuarantinesAtFlush) {
  ReadyHarness h;
  FaultInjector inj{h.sim, h.rt->telemetry(), /*seed=*/5};
  h.rt->set_fault_injector(&inj);
  inj.add_rule({.site = FaultSite::kDevice,
                .kind = FaultKind::kDeviceUnhealthy,
                .max_count = 1});

  ASSERT_EQ(h.send(h.nf, h.acc.acc_id, 8), 8u);
  h.sim.run_until(h.sim.now() + microseconds(100));

  // The device fault pulled the only replica straight to quarantine; with
  // no fallback registered the batch is a counted drop.
  EXPECT_EQ(h.drain(h.nf), 0u);
  EXPECT_EQ(h.rt->function_table().entry_for(h.acc.acc_id)->health,
            ReplicaHealth::kQuarantined);
  EXPECT_EQ(h.metric("dhl.runtime.submit_drop_pkts"), 8.0);
  EXPECT_EQ(h.metric("dhl.fault.injected", {{"site", "fpga.device"}}), 1.0);
  EXPECT_EQ(h.rt->in_flight(), 0u);
  EXPECT_EQ(h.pool.in_use(), 0u);
}

// Two replicas: exhausting the retry budget on one redirects the batch to
// the other replica instead of dropping.
TEST(FaultDmaSubmit, ExhaustionRedirectsToHealthyReplica) {
  RedirectHarness h;
  ASSERT_EQ(h.send(h.nf, h.acc.acc_id, 8), 8u);
  h.sim.run_until(h.sim.now() + milliseconds(1));

  EXPECT_EQ(h.drain(h.nf), 8u);  // redirected, not dropped
  EXPECT_EQ(h.metric("dhl.runtime.submit_drop_pkts"), 0.0);
  EXPECT_EQ(h.pool.in_use(), 0u);
  h.expect_flight_settled();
}

// Without NUMA-aware allocation every batch buffer lives on socket 0, so a
// batch redirected to the socket-1 board pays the remote penalty there,
// exactly as a batch flushed to that board does.
TEST(FaultDmaSubmit, RedirectPaysTheTargetBoardsNumaPenalty) {
  RuntimeConfig cfg;
  cfg.numa_aware = false;
  RedirectHarness h{cfg};
  ASSERT_EQ(h.fpgas[1]->socket(), 1);
  ASSERT_EQ(h.send(h.nf, h.acc.acc_id, 8), 8u);
  h.sim.run_until(h.sim.now() + milliseconds(1));

  EXPECT_EQ(h.drain(h.nf), 8u);
  // Each device has its own telemetry context in this harness.
  const sim::LatencyHistogram* tx = h.fpgas[1]->telemetry().metrics.histogram(
      "dhl.dma.tx_latency", {{"fpga", "fpga1"}});
  ASSERT_EQ(tx->count(), 1u);
  EXPECT_EQ(tx->max(), h.fpgas[1]->dma().one_way_latency(
                           8 * (fpga::kRecordHeaderBytes + 100), true));
  h.expect_flight_settled();
}

}  // namespace
}  // namespace dhl::runtime
