// Unit/integration tests for the DHL Runtime: control plane, Packer,
// Distributor, and the data-isolation property.

#include <gtest/gtest.h>

#include "dhl/accel/catalog.hpp"
#include "dhl/fpga/loopback.hpp"
#include "dhl/netio/mempool.hpp"
#include "dhl/netio/pktgen.hpp"
#include "dhl/runtime/api.hpp"
#include "dhl/runtime/runtime.hpp"

namespace dhl::runtime {
namespace {

using fpga::FpgaDevice;
using netio::Mbuf;
using netio::MbufPool;

struct Harness {
  sim::Simulator sim;
  // One shared telemetry context across device and runtime, as the Testbed
  // wires it, so a single trace session sees the whole data path.
  telemetry::TelemetryPtr tel = telemetry::make_telemetry();
  fpga::FpgaDeviceConfig fpga_cfg;
  std::unique_ptr<FpgaDevice> fpga;
  std::unique_ptr<DhlRuntime> rt;
  MbufPool pool{"test", 8192, 2048, 0};

  explicit Harness(RuntimeConfig cfg = {}) {
    fpga_cfg.telemetry = tel;
    cfg.telemetry = tel;
    fpga = std::make_unique<FpgaDevice>(sim, fpga_cfg);
    rt = std::make_unique<DhlRuntime>(sim, cfg,
                                      accel::standard_module_database(nullptr),
                                      std::vector<FpgaDevice*>{fpga.get()});
  }

  /// Run until the handle's PR load completes.
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

  /// Current value of a registry series, summed over its labels.
  double metric(const std::string& name) {
    return rt->telemetry().metrics.snapshot(sim.now()).sum(name);
  }

  /// Release everything in `nf`'s OBQ; returns how many packets it held.
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
};

TEST(Runtime, RegisterAssignsSequentialIds) {
  Harness h;
  EXPECT_EQ(h.rt->register_nf("a", 0), 0);
  EXPECT_EQ(h.rt->register_nf("b", 1), 1);
  EXPECT_EQ(h.rt->nf_count(), 2u);
  // Different sockets -> different shared IBQs; private OBQs per NF.
  EXPECT_NE(&h.rt->get_shared_ibq(0), &h.rt->get_shared_ibq(1));
  EXPECT_NE(&h.rt->get_private_obq(0), &h.rt->get_private_obq(1));
}

TEST(Runtime, SearchByNameLoadsFromDatabase) {
  Harness h;
  const AccHandle handle = h.rt->search_by_name("loopback", 0);
  ASSERT_TRUE(handle.valid());
  EXPECT_FALSE(h.rt->acc_ready(handle));  // PR still in flight
  h.wait_ready(handle);
  const auto table = h.rt->function_table().snapshot();
  ASSERT_EQ(table.size(), 1u);
  EXPECT_EQ(table[0].hf_name, "loopback");
}

TEST(Runtime, SearchByNameSharesExistingEntry) {
  Harness h;
  const AccHandle a = h.rt->search_by_name("loopback", 0);
  const AccHandle b = h.rt->search_by_name("loopback", 0);
  EXPECT_EQ(a.acc_id, b.acc_id);  // same module shared, no second PR load
  EXPECT_EQ(h.rt->function_table().snapshot().size(), 1u);
}

TEST(Runtime, SearchByNameUnknownFunctionFails) {
  Harness h;
  EXPECT_FALSE(h.rt->search_by_name("no-such-module", 0).valid());
}

TEST(Runtime, LoadPrTargetsSpecificFpga) {
  Harness h;
  const AccHandle handle = h.rt->load_pr("md5-auth", h.fpga->fpga_id());
  ASSERT_TRUE(handle.valid());
  h.wait_ready(handle);
  EXPECT_TRUE(h.fpga->region_of("md5-auth").has_value());
  EXPECT_FALSE(h.rt->load_pr("md5-auth", 12345).valid());  // unknown FPGA
}

TEST(Runtime, AccConfigureReachesModule) {
  Harness h;
  const AccHandle handle = h.rt->search_by_name("md5-auth", 0);
  ASSERT_TRUE(handle.valid());
  EXPECT_NO_THROW(h.rt->acc_configure(handle, {}));
  const std::vector<std::uint8_t> bad{1};
  EXPECT_THROW(h.rt->acc_configure(handle, bad), std::invalid_argument);
  AccHandle bogus;
  bogus.acc_id = 200;
  EXPECT_THROW(h.rt->acc_configure(bogus, {}), std::logic_error);
}

TEST(Runtime, EndToEndLoopback) {
  Harness h;
  const netio::NfId nf = h.rt->register_nf("nf0", 0);
  const AccHandle handle = h.rt->search_by_name("loopback", 0);
  h.wait_ready(handle);
  h.rt->start();

  auto& obq = h.rt->get_private_obq(nf);

  std::vector<Mbuf*> pkts;
  for (int i = 0; i < 40; ++i) {
    Mbuf* m = h.make_pkt(nf, handle.acc_id, 200, static_cast<std::uint8_t>(i));
    m->set_seq(static_cast<std::uint64_t>(i));
    pkts.push_back(m);
  }
  ASSERT_EQ(h.rt->send_packets(nf, pkts.data(), pkts.size()), pkts.size());
  h.sim.run_until(h.sim.now() + milliseconds(1));

  Mbuf* out[64];
  const std::size_t n = DhlRuntime::receive_packets(obq, out, 64);
  ASSERT_EQ(n, 40u);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(out[i]->seq(), i);  // order preserved
    EXPECT_EQ(out[i]->data_len(), 200u);
    EXPECT_EQ(out[i]->data()[0], static_cast<std::uint8_t>(i));
    out[i]->release();
  }
  EXPECT_EQ(h.metric("dhl.runtime.pkts_to_fpga"), 40);
  EXPECT_EQ(h.metric("dhl.runtime.pkts_from_fpga"), 40);
  EXPECT_EQ(h.rt->in_flight(), 0u);
}

TEST(Runtime, PackerRespectsBatchSizeCap) {
  RuntimeConfig cfg;
  cfg.timing.runtime.max_batch_bytes = 2048;
  Harness h{cfg};
  const netio::NfId nf = h.rt->register_nf("nf0", 0);
  const AccHandle handle = h.rt->search_by_name("loopback", 0);
  h.wait_ready(handle);
  h.rt->start();

  // 40 x 500 B > 2 KB: must split into multiple DMA batches.
  std::vector<Mbuf*> pkts;
  for (int i = 0; i < 40; ++i) {
    pkts.push_back(h.make_pkt(nf, handle.acc_id, 500, 0));
  }
  h.rt->send_packets(nf, pkts.data(), pkts.size());
  h.sim.run_until(h.sim.now() + milliseconds(1));

  const double batches = h.metric("dhl.runtime.batches_to_fpga");
  EXPECT_EQ(h.metric("dhl.runtime.pkts_to_fpga"), 40);
  EXPECT_GE(batches, 10);  // 500+16 B records, <= 3 per batch
  EXPECT_LE(h.metric("dhl.runtime.bytes_to_fpga") / batches, 2048);

  Mbuf* out[64];
  auto& obq = h.rt->get_private_obq(nf);
  const std::size_t n = DhlRuntime::receive_packets(obq, out, 64);
  EXPECT_EQ(n, 40u);
  for (std::size_t i = 0; i < n; ++i) out[i]->release();
}

TEST(Runtime, DataIsolationBetweenNfs) {
  // Paper IV-B: two NFs share the same accelerator module; each private OBQ
  // must receive exactly its own packets, payloads intact.
  Harness h;
  const netio::NfId nf_a = h.rt->register_nf("a", 0);
  const netio::NfId nf_b = h.rt->register_nf("b", 0);
  const AccHandle handle = h.rt->search_by_name("loopback", 0);
  h.wait_ready(handle);
  h.rt->start();

  // Same socket -> same shared IBQ.
  ASSERT_EQ(&h.rt->get_shared_ibq(nf_a), &h.rt->get_shared_ibq(nf_b));

  // Interleave the two NFs' packets on the shared IBQ.
  for (int i = 0; i < 100; ++i) {
    const netio::NfId nf = i % 2 == 0 ? nf_a : nf_b;
    Mbuf* m = h.make_pkt(nf, handle.acc_id, 100, nf == nf_a ? 0xaa : 0xbb);
    m->set_seq(static_cast<std::uint64_t>(i));
    ASSERT_EQ(h.rt->send_packets(nf, &m, 1), 1u);
  }
  h.sim.run_until(h.sim.now() + milliseconds(2));

  Mbuf* out[128];
  const std::size_t na =
      DhlRuntime::receive_packets(h.rt->get_private_obq(nf_a), out, 128);
  EXPECT_EQ(na, 50u);
  for (std::size_t i = 0; i < na; ++i) {
    EXPECT_EQ(out[i]->nf_id(), nf_a);
    EXPECT_EQ(out[i]->data()[0], 0xaa);
    EXPECT_EQ(out[i]->seq() % 2, 0u);
    out[i]->release();
  }
  const std::size_t nb =
      DhlRuntime::receive_packets(h.rt->get_private_obq(nf_b), out, 128);
  EXPECT_EQ(nb, 50u);
  for (std::size_t i = 0; i < nb; ++i) {
    EXPECT_EQ(out[i]->nf_id(), nf_b);
    EXPECT_EQ(out[i]->data()[0], 0xbb);
    out[i]->release();
  }
}

TEST(Runtime, BatchTimeoutFlushesUnderfullBatch) {
  Harness h;
  const netio::NfId nf = h.rt->register_nf("nf0", 0);
  const AccHandle handle = h.rt->search_by_name("loopback", 0);
  h.wait_ready(handle);
  h.rt->start();

  // A single small packet: far below 6 KB, must still come back quickly
  // (drain-flush / timeout policy bounds latency at low load).
  Mbuf* m = h.make_pkt(nf, handle.acc_id, 64, 0x7e);
  h.rt->send_packets(nf, &m, 1);
  h.sim.run_until(h.sim.now() + microseconds(100));

  Mbuf* out[4];
  ASSERT_EQ(DhlRuntime::receive_packets(h.rt->get_private_obq(nf), out, 4), 1u);
  EXPECT_EQ(out[0]->data()[0], 0x7e);
  out[0]->release();
}

TEST(Runtime, ObqOverflowCountsDrops) {
  RuntimeConfig cfg;
  cfg.obq_size = 16;  // tiny private OBQ
  Harness h{cfg};
  const netio::NfId nf = h.rt->register_nf("nf0", 0);
  const AccHandle handle = h.rt->search_by_name("loopback", 0);
  h.wait_ready(handle);
  h.rt->start();

  std::vector<Mbuf*> pkts;
  for (int i = 0; i < 64; ++i) {
    pkts.push_back(h.make_pkt(nf, handle.acc_id, 64, 0));
  }
  h.rt->send_packets(nf, pkts.data(), pkts.size());
  h.sim.run_until(h.sim.now() + milliseconds(1));  // nobody drains the OBQ
  EXPECT_GT(h.metric("dhl.runtime.obq_drops"), 0);
  EXPECT_EQ(h.rt->in_flight(), 0u);  // every mbuf accounted for

  Mbuf* out[64];
  const std::size_t n =
      DhlRuntime::receive_packets(h.rt->get_private_obq(nf), out, 64);
  EXPECT_LE(n, 15u);
  for (std::size_t i = 0; i < n; ++i) out[i]->release();
  // No mbuf leaked: pool fully recovers.
  EXPECT_EQ(h.pool.in_use(), 0u);
}

TEST(Runtime, RegistryCountsDropsAndErrorRecords) {
  // The metrics registry is the runtime's only stats surface: after an
  // end-to-end run with failures injected, the global dhl.runtime.* series
  // and the per-NF series must tell the same story.
  RuntimeConfig cfg;
  cfg.obq_size = 16;  // tiny OBQ: forces obq_drops
  Harness h{cfg};
  const netio::NfId nf = h.rt->register_nf("nf0", 0);
  const AccHandle handle = h.rt->search_by_name("loopback", 0);
  h.wait_ready(handle);
  h.rt->start();

  // Phase 1: overflow the private OBQ.
  std::vector<Mbuf*> pkts;
  for (int i = 0; i < 64; ++i) {
    pkts.push_back(h.make_pkt(nf, handle.acc_id, 64, 0));
  }
  h.rt->send_packets(nf, pkts.data(), pkts.size());
  h.sim.run_until(h.sim.now() + milliseconds(1));

  // Phase 2: unmap the accelerator on the device while the hardware-function
  // table still says ready -- the dispatcher flags these records as errors.
  h.fpga->unmap_acc(handle.acc_id);
  std::vector<Mbuf*> more;
  for (int i = 0; i < 8; ++i) {
    more.push_back(h.make_pkt(nf, handle.acc_id, 64, 0));
  }
  h.rt->send_packets(nf, more.data(), more.size());
  h.sim.run_until(h.sim.now() + milliseconds(1));

  const double obq_drops = h.metric("dhl.runtime.obq_drops");
  EXPECT_EQ(h.metric("dhl.runtime.pkts_to_fpga"), 72);
  EXPECT_EQ(h.metric("dhl.runtime.pkts_from_fpga"), 72);
  EXPECT_GT(obq_drops, 0);
  EXPECT_EQ(h.metric("dhl.runtime.error_records"), 8);

  // Per-(nf, acc) series agree with the global ones: nf0 carried every
  // packet, owns every error record and every OBQ-full drop.
  const auto snap = h.rt->telemetry().metrics.snapshot(h.sim.now());
  const auto* nf0 = snap.find("dhl.runtime.nf_pkts", {{"nf", "nf0"}});
  ASSERT_NE(nf0, nullptr);
  EXPECT_DOUBLE_EQ(nf0->value, 72.0);
  const auto* nf0_err =
      snap.find("dhl.runtime.nf_error_records", {{"nf", "nf0"}});
  ASSERT_NE(nf0_err, nullptr);
  EXPECT_DOUBLE_EQ(nf0_err->value, 8.0);
  const auto* nf0_drops = snap.find("dhl.nf.obq_drops", {{"nf", "nf0"}});
  ASSERT_NE(nf0_drops, nullptr);
  EXPECT_DOUBLE_EQ(nf0_drops->value, obq_drops);

  // Drain what made it through.
  Mbuf* out[64];
  const std::size_t n =
      DhlRuntime::receive_packets(h.rt->get_private_obq(nf), out, 64);
  for (std::size_t i = 0; i < n; ++i) out[i]->release();
}

TEST(Runtime, TraceSessionRecordsBatchSpans) {
  Harness h;
  h.rt->telemetry().trace.enable();
  const netio::NfId nf = h.rt->register_nf("nf0", 0);
  const AccHandle handle = h.rt->search_by_name("loopback", 0);
  h.wait_ready(handle);
  h.rt->start();

  std::vector<Mbuf*> pkts;
  for (int i = 0; i < 20; ++i) {
    pkts.push_back(h.make_pkt(nf, handle.acc_id, 200, 0));
  }
  h.rt->send_packets(nf, pkts.data(), pkts.size());
  h.sim.run_until(h.sim.now() + milliseconds(1));

  const auto& trace = h.rt->telemetry().trace;
  EXPECT_GT(trace.count_named("batch.pack"), 0u);
  EXPECT_GT(trace.count_named("dma.tx"), 0u);
  EXPECT_GT(trace.count_named("fpga.process"), 0u);
  EXPECT_GT(trace.count_named("dma.rx"), 0u);
  EXPECT_GT(trace.count_named("batch.distribute"), 0u);
  // Every batch that completed the round trip has one lifecycle span, and it
  // covers the whole journey (duration > 0 on the virtual clock).
  EXPECT_EQ(trace.count_named("batch.lifecycle"),
            h.metric("dhl.runtime.batches_from_fpga"));
  for (const auto& e : trace.events()) {
    if (e.name == "batch.lifecycle") {
      EXPECT_GT(e.duration, 0u);
    }
  }

  Mbuf* out[32];
  const std::size_t n =
      DhlRuntime::receive_packets(h.rt->get_private_obq(nf), out, 32);
  for (std::size_t i = 0; i < n; ++i) out[i]->release();
}

// --- stage booking -----------------------------------------------------------

TEST(RuntimeStages, DrainedRunBooksEveryStageOncePerPacket) {
  // Each stage has one booking seam: the Packer's doorbell (pack), RX
  // delivery (dma_tx, fpga, dma_rx), the Distributor's pickup
  // (distributor) and OBQ delivery (ibq_wait, end_to_end).  After a drain
  // every delivered packet has exactly one sample in each.
  Harness h;
  const netio::NfId nf = h.rt->register_nf("nf0", 0);
  const AccHandle handle = h.rt->search_by_name("loopback", 0);
  h.wait_ready(handle);
  h.rt->start();
  ASSERT_TRUE(h.rt->telemetry().stages.enabled());

  std::size_t delivered = 0;
  for (int wave = 0; wave < 5; ++wave) {
    std::vector<Mbuf*> pkts;
    for (int i = 0; i < 60; ++i) {
      pkts.push_back(h.make_pkt(nf, handle.acc_id, 300, 0));
    }
    ASSERT_EQ(h.rt->send_packets(nf, pkts.data(), pkts.size()), pkts.size());
    h.sim.run_until(h.sim.now() + microseconds(300));
    delivered += h.drain_obq(nf);
  }
  h.sim.run_until(h.sim.now() + milliseconds(1));
  delivered += h.drain_obq(nf);
  ASSERT_EQ(delivered, 300u);
  ASSERT_GT(h.metric("dhl.runtime.batches_to_fpga"), 5);  // full flushes too

  const telemetry::StageLatencyRecorder& stages = h.rt->telemetry().stages;
  for (const telemetry::Stage stage :
       {telemetry::Stage::kIbqWait, telemetry::Stage::kPack,
        telemetry::Stage::kDmaTx, telemetry::Stage::kFpga,
        telemetry::Stage::kDmaRx, telemetry::Stage::kDistributor,
        telemetry::Stage::kEndToEnd}) {
    EXPECT_EQ(stages.stage(stage).count(), delivered)
        << "stage " << telemetry::to_string(stage);
  }
  EXPECT_EQ(stages.stage(telemetry::Stage::kFallback).count(), 0u);
}

TEST(RuntimeStages, SingleBatchStagesAreItsSeamDifferences) {
  // One batch, booked once per stage with record_n: every packet in it
  // shares the same two seam times, and on an idle RX channel the dma_rx
  // stage is exactly the one-way DMA latency of the batch's bytes.
  Harness h;
  const netio::NfId nf = h.rt->register_nf("nf0", 0);
  const AccHandle handle = h.rt->search_by_name("loopback", 0);
  h.wait_ready(handle);
  h.rt->start();

  constexpr int kPkts = 10;
  constexpr std::uint32_t kLen = 200;
  std::vector<Mbuf*> pkts;
  for (int i = 0; i < kPkts; ++i) {
    pkts.push_back(h.make_pkt(nf, handle.acc_id, kLen, 0));
  }
  ASSERT_EQ(h.rt->send_packets(nf, pkts.data(), pkts.size()), pkts.size());
  h.sim.run_until(h.sim.now() + milliseconds(1));
  ASSERT_EQ(h.drain_obq(nf), static_cast<std::size_t>(kPkts));
  ASSERT_EQ(h.metric("dhl.runtime.batches_to_fpga"), 1);

  const telemetry::StageLatencyRecorder& stages = h.rt->telemetry().stages;
  for (const telemetry::Stage stage :
       {telemetry::Stage::kPack, telemetry::Stage::kDmaTx,
        telemetry::Stage::kFpga, telemetry::Stage::kDmaRx,
        telemetry::Stage::kDistributor}) {
    const sim::LatencyHistogram& hist = stages.stage(stage);
    EXPECT_EQ(hist.count(), static_cast<std::uint64_t>(kPkts))
        << telemetry::to_string(stage);
    EXPECT_EQ(hist.min(), hist.max()) << telemetry::to_string(stage);
  }
  const std::uint64_t batch_bytes = kPkts * (fpga::kRecordHeaderBytes + kLen);
  EXPECT_EQ(stages.stage(telemetry::Stage::kDmaRx).max(),
            h.fpga->dma().one_way_latency(batch_bytes, false));
}

// --- flight ------------------------------------------------------------------

TEST(RuntimeFlight, EveryAdmittedPacketIsAccountedAtEveryEvent) {
  // A packet is in flight from the Packer's IBQ dequeue until it is
  // delivered or dropped, so conservation holds after every event, not
  // only after a drain: admitted = IBQ + in flight + delivered + dropped.
  // That includes the window between the Distributor's pickup and the
  // deferred OBQ delivery.
  Harness h;
  const netio::NfId nf = h.rt->register_nf("nf0", 0);
  const AccHandle handle = h.rt->search_by_name("loopback", 0);
  h.wait_ready(handle);
  h.rt->start();
  const TenantContext& t = *h.rt->tenants().context(kDefaultTenant);
  const netio::MbufRing& ibq = h.rt->get_shared_ibq(nf);

  std::vector<Mbuf*> pkts;
  for (int i = 0; i < 200; ++i) {
    pkts.push_back(h.make_pkt(nf, handle.acc_id, 200, 0));
  }
  ASSERT_EQ(h.rt->send_packets(nf, pkts.data(), pkts.size()), pkts.size());

  const Picos end = h.sim.now() + milliseconds(1);
  std::uint64_t events = 0;
  while (h.sim.now() < end && h.sim.step()) {
    ++events;
    ASSERT_EQ(t.admitted_pkts->value(),
              t.delivered_pkts->value() + t.dropped_pkts->value() +
                  ibq.count() + h.rt->in_flight())
        << "after event " << events;
  }
  EXPECT_EQ(t.delivered_pkts->value(), 200u);
  EXPECT_EQ(h.rt->in_flight(), 0u);
  EXPECT_EQ(h.drain_obq(nf), 200u);
}

TEST(Runtime, AdaptiveBatchingShrinksBatchesAtLowRate) {
  RuntimeConfig cfg;
  cfg.timing.runtime.adaptive_batching = true;
  Harness h{cfg};
  const netio::NfId nf = h.rt->register_nf("nf0", 0);
  const AccHandle handle = h.rt->search_by_name("loopback", 0);
  h.wait_ready(handle);
  h.rt->start();

  auto& obq = h.rt->get_private_obq(nf);

  // Trickle: one 200 B packet every 10 us -> EWMA rate ~20 MB/s -> the
  // adaptive cap collapses to min_batch_bytes, so every packet ships in its
  // own small batch instead of waiting for a 6 KB fill.
  for (int i = 0; i < 200; ++i) {
    Mbuf* m = h.make_pkt(nf, handle.acc_id, 200, 0x3c);
    ASSERT_EQ(h.rt->send_packets(nf, &m, 1), 1u);
    h.sim.run_until(h.sim.now() + microseconds(10));
  }
  h.sim.run_until(h.sim.now() + microseconds(200));

  EXPECT_EQ(h.metric("dhl.runtime.pkts_to_fpga"), 200);
  const double avg_batch = h.metric("dhl.runtime.bytes_to_fpga") /
                           h.metric("dhl.runtime.batches_to_fpga");
  EXPECT_LT(avg_batch, 1024.0);  // far below the 6 KB fixed cap

  Mbuf* out[256];
  const std::size_t got = DhlRuntime::receive_packets(obq, out, 256);
  EXPECT_EQ(got, 200u);
  for (std::size_t i = 0; i < got; ++i) out[i]->release();
}

TEST(Runtime, AdaptiveBatchingGrowsBatchesAtHighRate) {
  RuntimeConfig cfg;
  cfg.timing.runtime.adaptive_batching = true;
  Harness h{cfg};
  const netio::NfId nf = h.rt->register_nf("nf0", 0);
  const AccHandle handle = h.rt->search_by_name("loopback", 0);
  h.wait_ready(handle);
  h.rt->start();

  auto& obq = h.rt->get_private_obq(nf);

  // Flood: bursts of 64 x 1000 B packets every microsecond (~64 GB/s
  // offered) -> the cap must open up to the full 6 KB.
  std::uint64_t sent = 0;
  for (int burst = 0; burst < 200; ++burst) {
    for (int i = 0; i < 64; ++i) {
      if (h.pool.available() == 0) break;  // backlog in flight
      Mbuf* m = h.make_pkt(nf, handle.acc_id, 1000, 0x11);
      if (h.rt->send_packets(nf, &m, 1) == 1) {
        ++sent;
      } else {
        m->release();
      }
    }
    h.sim.run_until(h.sim.now() + microseconds(1));
    Mbuf* out[256];
    std::size_t got;
    while ((got = DhlRuntime::receive_packets(obq, out, 256)) > 0) {
      for (std::size_t i = 0; i < got; ++i) out[i]->release();
    }
  }
  // Drain the DMA backlog (we offered far above the 42 Gbps ceiling).
  for (int round = 0; round < 20 && h.rt->in_flight() > 0; ++round) {
    h.sim.run_until(h.sim.now() + milliseconds(1));
    Mbuf* out[256];
    std::size_t got;
    while ((got = DhlRuntime::receive_packets(obq, out, 256)) > 0) {
      for (std::size_t i = 0; i < got; ++i) out[i]->release();
    }
  }

  EXPECT_GT(sent, 5000u);
  const double avg_batch = h.metric("dhl.runtime.bytes_to_fpga") /
                           h.metric("dhl.runtime.batches_to_fpga");
  EXPECT_GT(avg_batch, 4000.0);  // near the 6 KB cap
  EXPECT_EQ(h.rt->in_flight(), 0u);
}

TEST(Runtime, StopHaltsTransferCores) {
  Harness h;
  h.rt->register_nf("nf0", 0);
  const AccHandle handle = h.rt->search_by_name("loopback", 0);
  h.wait_ready(handle);
  h.rt->start();
  EXPECT_EQ(h.rt->transfer_cores().size(), 4u);  // 2 sockets x (tx+rx)
  h.rt->stop();
  const auto executed = h.sim.executed();
  h.sim.run_until(h.sim.now() + milliseconds(1));
  // No transfer-core polling events while stopped.
  EXPECT_LE(h.sim.executed() - executed, 8u);
}

}  // namespace
}  // namespace dhl::runtime
