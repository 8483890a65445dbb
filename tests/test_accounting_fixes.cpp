// Regression tests for the hot-path accounting sweep (ISSUE 5 satellites):
// oversized-record rejection, acc_id generation safety across slot
// recycling, first_pkt_enqueued_at as the batch lifecycle anchor, the
// Distributor's delivery-buffer recycling, and the adaptive batch cap.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "dhl/accel/catalog.hpp"
#include "dhl/fpga/batch.hpp"
#include "dhl/netio/mempool.hpp"
#include "dhl/runtime/runtime.hpp"
#include "dhl/telemetry/drop_site.hpp"

namespace dhl::runtime {
namespace {

using fpga::FpgaDevice;
using netio::Mbuf;
using netio::MbufPool;

struct Harness {
  sim::Simulator sim;
  telemetry::TelemetryPtr tel = telemetry::make_telemetry();
  fpga::FpgaDeviceConfig fpga_cfg;
  std::unique_ptr<FpgaDevice> fpga;
  std::unique_ptr<DhlRuntime> rt;
  // Large per-buffer capacity so tests can build packets bigger than the
  // 6 KB batch ceiling.
  MbufPool pool{"acct-test", 8192, 16384, 0};

  explicit Harness(RuntimeConfig cfg = {}) {
    fpga_cfg.telemetry = tel;
    cfg.telemetry = tel;
    fpga = std::make_unique<FpgaDevice>(sim, fpga_cfg);
    rt = std::make_unique<DhlRuntime>(sim, cfg,
                                      accel::standard_module_database(nullptr),
                                      std::vector<FpgaDevice*>{fpga.get()});
  }

  void wait_ready(const AccHandle& h) {
    sim.run_until(sim.now() + milliseconds(40));
    ASSERT_TRUE(rt->acc_ready(h));
  }

  Mbuf* make_pkt(netio::NfId nf, netio::AccId acc, std::uint32_t len,
                 std::uint8_t fill) {
    Mbuf* m = pool.alloc();
    std::vector<std::uint8_t> data(len, fill);
    m->assign(data);
    m->set_nf_id(nf);
    m->set_acc_id(acc);
    m->set_rx_timestamp(sim.now() == 0 ? 1 : sim.now());
    return m;
  }

  double metric(const std::string& name) {
    return rt->telemetry().metrics.snapshot().sum(name);
  }

  /// Dequeue and release everything sitting in `nf`'s OBQ.
  std::size_t drain_obq(netio::NfId nf) {
    auto& obq = rt->get_private_obq(nf);
    Mbuf* out[64];
    std::size_t total = 0;
    for (;;) {
      const std::size_t n = DhlRuntime::receive_packets(obq, out, 64);
      if (n == 0) break;
      for (std::size_t i = 0; i < n; ++i) out[i]->release();
      total += n;
    }
    return total;
  }

  void expect_clean_audit() {
    if (!kLedgerCompiled) return;
    const LedgerAudit a = rt->ledger().audit();
    EXPECT_TRUE(a.clean()) << a.to_string();
  }

  /// Each drop site's counter equals the ledger's terminal count there.
  void expect_site_counters_match_ledger() {
    if (!kLedgerCompiled) return;
    const LedgerAudit a = rt->ledger().audit();
    for (std::size_t i = 0; i < telemetry::kDropSites.size(); ++i) {
      EXPECT_EQ(metric(telemetry::kDropSites[i].counter),
                static_cast<double>(a.dropped[i]))
          << telemetry::kDropSites[i].name;
    }
  }
};

// --- oversized-record rejection -------------------------------------------

// A record bigger than max_batch_bytes has no legal encapsulation: it must
// be rejected up front (counted, ledgered), never appended to a batch that
// then ships past the 6 KB DMA contract.
TEST(AccountingFixes, OversizeRecordDroppedWithoutFallback) {
  Harness h;
  const netio::NfId nf = h.rt->register_nf("nf0", 0);
  const AccHandle acc = h.rt->search_by_name("loopback", 0);
  h.wait_ready(acc);
  h.rt->start();

  Mbuf* big = h.make_pkt(nf, acc.acc_id, 7000, 0xab);  // 7016 B record > 6144
  Mbuf* ok = h.make_pkt(nf, acc.acc_id, 100, 0xcd);
  Mbuf* pkts[2] = {big, ok};
  ASSERT_EQ(h.rt->send_packets(nf, pkts, 2), 2u);
  h.sim.run_until(h.sim.now() + milliseconds(1));

  EXPECT_EQ(h.metric("dhl.runtime.oversize_drops"), 1);
  EXPECT_EQ(h.metric("dhl.runtime.unready_drops"), 0);
  // The normal packet still round-trips; only the oversize one is gone.
  EXPECT_EQ(h.drain_obq(nf), 1u);
  EXPECT_EQ(h.rt->in_flight(), 0u);
  h.expect_clean_audit();
  h.expect_site_counters_match_ledger();
}

TEST(AccountingFixes, OversizeRecordRoutedToFallback) {
  Harness h;
  const netio::NfId nf = h.rt->register_nf("nf0", 0);
  const AccHandle acc = h.rt->search_by_name("loopback", 0);
  h.wait_ready(acc);
  // Loopback leaves the payload untouched; an identity fallback matches.
  h.rt->register_fallback(nf, "loopback", [](Mbuf&) {});
  h.rt->start();

  Mbuf* big = h.make_pkt(nf, acc.acc_id, 7000, 0xab);
  ASSERT_EQ(h.rt->send_packets(nf, &big, 1), 1u);
  h.sim.run_until(h.sim.now() + milliseconds(1));

  // Rejected from the batching path but served in software: the packet
  // reaches the OBQ, so it is not a drop.
  EXPECT_EQ(h.metric("dhl.runtime.oversize_drops"), 0);
  EXPECT_EQ(h.metric("dhl.fallback.pkts"), 1);
  EXPECT_EQ(h.drain_obq(nf), 1u);
  h.expect_clean_audit();
  h.expect_site_counters_match_ledger();
}

// --- acc_id generation safety ---------------------------------------------

TEST(AccountingFixes, GenerationCheckedLookup) {
  Harness h;
  const AccHandle acc = h.rt->search_by_name("loopback", 0);
  ASSERT_TRUE(acc.valid());
  HwFunctionTable& table = h.rt->function_table();
  const std::uint32_t gen = table.acc_generation(acc.acc_id);
  ASSERT_GE(gen, 1u);
  EXPECT_EQ(table.entry_for(acc.acc_id, gen), table.entry_for(acc.acc_id));
  // Wrong generation and the "unstamped" sentinel both miss.
  EXPECT_EQ(table.entry_for(acc.acc_id, gen + 1), nullptr);
  EXPECT_EQ(table.entry_for(acc.acc_id, 0), nullptr);
  h.rt->unload_function("loopback");
  EXPECT_EQ(table.entry_for(acc.acc_id, gen), nullptr);
}

// An unload can race a batch's DMA retry backoff.  The exhaustion path must
// notice the binding went stale (generation mismatch / entry gone) and route
// the packets to the *function's* software fallback by name instead of
// blaming whatever the acc_id slot resolves to now.
TEST(AccountingFixes, StaleBatchAfterUnloadRoutedToFallback) {
  Harness h;
  FaultInjector inj{h.sim, *h.tel, /*seed=*/7};
  FaultRule rule;
  rule.site = fpga::FaultSite::kDmaSubmit;
  rule.kind = fpga::FaultKind::kSubmitTimeout;
  rule.probability = 1.0;
  inj.add_rule(rule);

  const netio::NfId nf = h.rt->register_nf("nf0", 0);
  const AccHandle acc = h.rt->search_by_name("loopback", 0);
  h.wait_ready(acc);
  h.rt->register_fallback(nf, "loopback", [](Mbuf&) {});
  h.rt->set_fault_injector(&inj);
  h.rt->start();

  const Picos t0 = h.sim.now();
  Mbuf* m = h.make_pkt(nf, acc.acc_id, 200, 0x42);
  ASSERT_EQ(h.rt->send_packets(nf, &m, 1), 1u);

  // Timeline: timeout flush at ~t0+15us, submit attempts at +0/2/6/14us
  // after the flush (backoff << attempt), exhaustion right after the last
  // one.  Unload mid-backoff, before the exhaustion handler runs.
  h.sim.run_until(t0 + microseconds(20));
  ASSERT_GE(inj.injected(fpga::FaultSite::kDmaSubmit), 1u);
  EXPECT_EQ(h.rt->unload_function("loopback"), 1u);
  h.sim.run_until(t0 + microseconds(200));

  EXPECT_EQ(h.metric("dhl.runtime.stale_acc_batches"), 1);
  // Served in software, not dropped, and nobody's health was touched.
  EXPECT_EQ(h.metric("dhl.fallback.pkts"), 1);
  EXPECT_EQ(h.metric("dhl.runtime.submit_drop_pkts"), 0);
  EXPECT_EQ(h.drain_obq(nf), 1u);
  EXPECT_EQ(h.rt->in_flight(), 0u);
  h.expect_clean_audit();
}

// Recycle an acc_id slot to a *different* function via ~255 load/unload
// cycles (the allocator's cursor has to wrap), then complete a corrupt
// batch stamped with the slot's old generation.  The new owner must not be
// blamed for bytes it never carried.
TEST(AccountingFixes, StaleGenerationNotBlamedOnRecycledSlot) {
  Harness h;
  const AccHandle first = h.rt->load_pr("loopback", h.fpga->fpga_id());
  ASSERT_TRUE(first.valid());
  const netio::AccId slot = first.acc_id;
  HwFunctionTable& table = h.rt->function_table();
  const std::uint32_t old_gen = table.acc_generation(slot);
  h.wait_ready(first);
  h.rt->unload_function("loopback");

  // Drive the allocator cursor around the 8-bit acc_id space until the
  // freed slot is handed out again, now owned by md5-auth.
  AccHandle reused;
  for (int i = 0; i < 300; ++i) {
    reused = h.rt->load_pr("md5-auth", h.fpga->fpga_id());
    ASSERT_TRUE(reused.valid());
    if (reused.acc_id == slot) break;
    h.rt->unload_function("md5-auth");
    // Let the in-flight ICAP programming finish so the region (freed by
    // the PR-done callback after an early unload) is reusable.
    h.sim.run_until(h.sim.now() + milliseconds(20));
  }
  ASSERT_EQ(reused.acc_id, slot) << "acc_id cursor never wrapped";
  h.wait_ready(reused);
  HwFunctionEntry* owner = table.entry_for(slot);
  ASSERT_NE(owner, nullptr);
  ASSERT_EQ(owner->hf_name, "md5-auth");
  const std::uint32_t new_gen = table.acc_generation(slot);
  ASSERT_NE(new_gen, old_gen);

  // A corrupt batch from the slot's *previous* life: generation mismatch,
  // so the innocent new owner keeps its clean record.
  auto stale = std::make_unique<fpga::DmaBatch>(slot);
  stale->acc_gen = old_gen;
  stale->submitted_bytes = 512;
  stale->wire_corrupt = true;
  h.rt->distributor().enqueue_completion(0, std::move(stale));
  EXPECT_EQ(h.metric("dhl.runtime.stale_acc_batches"), 1);
  EXPECT_EQ(h.metric("dhl.batch.crc_drops"), 1);
  EXPECT_EQ(owner->consecutive_failures, 0u);
  EXPECT_EQ(owner->health, ReplicaHealth::kHealthy);

  // Control: the same corruption with the *current* generation does blame.
  auto current = std::make_unique<fpga::DmaBatch>(slot);
  current->acc_gen = new_gen;
  current->submitted_bytes = 512;
  current->wire_corrupt = true;
  h.rt->distributor().enqueue_completion(0, std::move(current));
  EXPECT_EQ(h.metric("dhl.runtime.stale_acc_batches"), 1);
  EXPECT_EQ(h.metric("dhl.batch.crc_drops"), 2);
  EXPECT_EQ(owner->consecutive_failures, 1u);
  h.expect_clean_audit();
}

// --- batch lifecycle anchored at the first packet -------------------------

// The batch.lifecycle span must start when the first packet entered the
// batch, not at the (possibly much earlier) slot-open time: it is the
// bound on packet latency the benches read.
TEST(AccountingFixes, LifecycleSpanStartsAtFirstPacketEnqueue) {
  RuntimeConfig cfg;
  cfg.num_sockets = 1;
  Harness h{cfg};
  const netio::NfId nf = h.rt->register_nf("nf0", 0);
  h.rt->telemetry().trace.enable();

  Mbuf* m = h.make_pkt(nf, 7, 64, 0x11);
  auto batch = std::make_unique<fpga::DmaBatch>(7);
  batch->append(nf, m->payload(), m);
  batch->first_pkt_enqueued_at = microseconds(3);
  h.sim.run_until(microseconds(5));
  h.rt->distributor().enqueue_completion(0, std::move(batch));
  h.rt->distributor().poll(0);
  h.sim.run_until(h.sim.now() + microseconds(10));

  const auto& events = h.rt->telemetry().trace.events();
  const auto it = std::find_if(events.begin(), events.end(),
                               [](const telemetry::TraceEvent& e) {
                                 return e.name == "batch.lifecycle";
                               });
  ASSERT_NE(it, events.end());
  EXPECT_EQ(it->start, microseconds(3));
  EXPECT_EQ(h.drain_obq(nf), 1u);
}

// --- Distributor delivery-buffer recycling --------------------------------

// The deferred OBQ-delivery event must hand its vector back to the
// per-socket free list, so steady state runs on one recycled buffer
// instead of one heap allocation per delivery event.
TEST(AccountingFixes, DeliveryBufferRecycledAcrossPolls) {
  RuntimeConfig cfg;
  cfg.num_sockets = 1;
  Harness h{cfg};
  const netio::NfId nf = h.rt->register_nf("nf0", 0);
  const AccHandle acc = h.rt->search_by_name("loopback", 0);
  h.wait_ready(acc);
  h.rt->start();

  auto wave = [&] {
    for (int i = 0; i < 4; ++i) {
      Mbuf* m = h.make_pkt(nf, acc.acc_id, 256, 0x33);
      EXPECT_EQ(h.rt->send_packets(nf, &m, 1), 1u);
    }
    h.sim.run_until(h.sim.now() + microseconds(200));
    EXPECT_EQ(h.drain_obq(nf), 4u);
  };

  wave();
  const auto ids1 = h.rt->distributor().delivery_buffer_ids(0);
  ASSERT_EQ(ids1.size(), 1u);
  wave();
  const auto ids2 = h.rt->distributor().delivery_buffer_ids(0);
  // Same heap vector, parked and reused -- not a fresh allocation per event.
  EXPECT_EQ(ids1, ids2);
  h.expect_clean_audit();
}

// --- adaptive batch cap ---------------------------------------------------

TEST(AccountingFixes, AdaptiveCapClampsAndDecays) {
  RuntimeConfig cfg;
  cfg.num_sockets = 1;
  cfg.timing.runtime.adaptive_batching = true;
  Harness h{cfg};
  const auto& rt_cfg = cfg.timing.runtime;
  const netio::NfId nf = h.rt->register_nf("nf0", 0);
  const AccHandle acc = h.rt->search_by_name("loopback", 0);
  h.wait_ready(acc);

  // Cold start: no measured arrivals, so the cap sits at the floor.
  EXPECT_EQ(h.rt->packer().effective_batch_cap(0), rt_cfg.min_batch_bytes);

  // Sustained ~12 GB/s arrival rate: the EWMA must push the cap to the
  // ceiling (and never past it).
  for (int i = 0; i < 200; ++i) {
    for (int p = 0; p < 8; ++p) {
      Mbuf* m = h.make_pkt(nf, acc.acc_id, 1500, 0x55);
      ASSERT_EQ(h.rt->send_packets(nf, &m, 1), 1u);
    }
    h.rt->packer().poll(0);
    h.sim.run_until(h.sim.now() + microseconds(1));
  }
  EXPECT_EQ(h.rt->packer().effective_batch_cap(0), rt_cfg.max_batch_bytes);

  // Idle polls decay the estimate back to the floor.
  for (int i = 0; i < 400; ++i) {
    h.rt->packer().poll(0);
    h.sim.run_until(h.sim.now() + microseconds(1));
  }
  EXPECT_EQ(h.rt->packer().effective_batch_cap(0), rt_cfg.min_batch_bytes);

  // Drain everything still in flight so the audit can balance.
  for (int i = 0; i < 400; ++i) {
    h.rt->packer().poll(0);
    h.rt->distributor().poll(0);
    h.sim.run_until(h.sim.now() + microseconds(5));
  }
  EXPECT_EQ(h.drain_obq(nf), 1600u);
  EXPECT_EQ(h.rt->in_flight(), 0u);
  h.expect_clean_audit();
}

// batch_fill_ppm is recorded against the cap in effect at flush time: a
// 408-byte flush against the adaptive 512-byte floor is ~80% full, not the
// ~7% that judging it against max_batch_bytes would report.
TEST(AccountingFixes, BatchFillMeasuredAgainstEffectiveCap) {
  RuntimeConfig cfg;
  cfg.num_sockets = 1;
  cfg.timing.runtime.adaptive_batching = true;
  Harness h{cfg};
  const netio::NfId nf = h.rt->register_nf("nf0", 0);
  const AccHandle acc = h.rt->search_by_name("loopback", 0);
  h.wait_ready(acc);

  h.rt->packer().poll(0);  // arm the rate estimator's timestamp
  h.sim.run_until(h.sim.now() + microseconds(1));
  // Four 136-byte records against the 512-byte floor: the fourth forces a
  // flush-before-append at 408 bytes.
  for (int p = 0; p < 4; ++p) {
    Mbuf* m = h.make_pkt(nf, acc.acc_id, 120, 0x66);
    ASSERT_EQ(h.rt->send_packets(nf, &m, 1), 1u);
  }
  h.rt->packer().poll(0);
  ASSERT_EQ(h.rt->packer().effective_batch_cap(0),
            cfg.timing.runtime.min_batch_bytes);

  const auto snap = h.rt->telemetry().metrics.snapshot();
  const auto* fill = snap.find("dhl.runtime.batch_fill_ppm");
  ASSERT_NE(fill, nullptr);
  ASSERT_GE(fill->count, 1u);
  // 408e6 / 512 = 796875 ppm; against max_batch_bytes it would be 66406.
  EXPECT_GT(static_cast<double>(fill->max), 500000.0);

  for (int i = 0; i < 200; ++i) {
    h.rt->packer().poll(0);
    h.rt->distributor().poll(0);
    h.sim.run_until(h.sim.now() + microseconds(5));
  }
  EXPECT_EQ(h.drain_obq(nf), 4u);
  EXPECT_EQ(h.rt->in_flight(), 0u);
  h.expect_clean_audit();
}

}  // namespace
}  // namespace dhl::runtime
