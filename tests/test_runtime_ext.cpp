// Extended runtime tests: module eviction, multi-FPGA placement, and
// failure injection (corrupted tags, in-flight unloads, pool exhaustion).

#include <gtest/gtest.h>

#include "dhl/accel/catalog.hpp"
#include "dhl/accel/ipsec_crypto.hpp"
#include "dhl/fpga/batch.hpp"
#include "dhl/fpga/loopback.hpp"
#include "dhl/netio/mempool.hpp"
#include "dhl/runtime/api.hpp"
#include "dhl/runtime/runtime.hpp"

namespace dhl::runtime {
namespace {

using fpga::FpgaDevice;
using netio::Mbuf;
using netio::MbufPool;

struct MultiHarness {
  sim::Simulator sim;
  std::vector<std::unique_ptr<FpgaDevice>> fpgas;
  std::unique_ptr<DhlRuntime> rt;
  MbufPool pool{"test", 8192, 2048, 0};

  explicit MultiHarness(int num_fpgas = 1, RuntimeConfig cfg = {}) {
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

  Mbuf* make_pkt(netio::NfId nf, netio::AccId acc, std::uint32_t len) {
    Mbuf* m = pool.alloc();
    m->assign(std::vector<std::uint8_t>(len, 0x42));
    m->set_nf_id(nf);
    m->set_acc_id(acc);
    m->set_rx_timestamp(sim.now() == 0 ? 1 : sim.now());
    return m;
  }
};

TEST(RuntimeEviction, UnloadFreesRegionForReuse) {
  MultiHarness h;
  const AccHandle a = h.rt->search_by_name("loopback", 0);
  h.sim.run_until(h.sim.now() + milliseconds(10));
  ASSERT_TRUE(h.rt->acc_ready(a));
  ASSERT_EQ(h.rt->function_table().snapshot().size(), 1u);
  const auto used_before = h.fpgas[0]->used_resources().luts;

  EXPECT_EQ(h.rt->unload_function("loopback"), 1u);
  EXPECT_TRUE(h.rt->function_table().snapshot().empty());
  EXPECT_LT(h.fpgas[0]->used_resources().luts, used_before);

  // The part is immediately reusable, with a fresh acc_id.
  const AccHandle b = h.rt->search_by_name("md5-auth", 0);
  ASSERT_TRUE(b.valid());
  EXPECT_NE(b.acc_id, a.acc_id);
  h.sim.run_until(h.sim.now() + milliseconds(20));
  EXPECT_TRUE(h.rt->acc_ready(b));
}

TEST(RuntimeEviction, UnloadUnknownNameIsNoop) {
  MultiHarness h;
  EXPECT_EQ(h.rt->unload_function("never-loaded"), 0u);
}

TEST(RuntimeEviction, UnloadMidReconfigurationFreesPartOnCompletion) {
  MultiHarness h;
  const AccHandle a = h.rt->search_by_name("ipsec-crypto", 0);
  ASSERT_TRUE(a.valid());
  EXPECT_FALSE(h.rt->acc_ready(a));        // ICAP still programming
  EXPECT_EQ(h.rt->unload_function("ipsec-crypto"), 1u);
  h.sim.run_until(h.sim.now() + milliseconds(40));  // let ICAP finish
  // The part was released by the PR-done callback; everything fits again.
  EXPECT_EQ(h.fpgas[0]->used_resources().luts,
            h.fpgas[0]->config().static_region.luts);
}

TEST(RuntimeEviction, PacketsToUnloadedFunctionComeBackFlagged) {
  MultiHarness h;
  const netio::NfId nf = h.rt->register_nf("nf0", 0);
  const AccHandle a = h.rt->search_by_name("loopback", 0);
  h.sim.run_until(h.sim.now() + milliseconds(10));
  h.rt->start();

  // Capture the acc_id, then unload; the device no longer maps it but the
  // hf-table entry is also gone, so the Packer drops such packets loudly.
  const netio::AccId stale = a.acc_id;
  h.rt->unload_function("loopback");
  Mbuf* m = h.make_pkt(nf, stale, 100);
  h.rt->send_packets(nf, &m, 1);
  h.sim.run_until(h.sim.now() + microseconds(200));
  // Nothing delivered; no leak.
  Mbuf* out[4];
  EXPECT_EQ(DhlRuntime::receive_packets(h.rt->get_private_obq(nf), out, 4), 0u);
  EXPECT_EQ(h.pool.in_use(), 0u);
}

TEST(RuntimeMultiFpga, SecondFpgaHostsWhenFirstIsFull) {
  RuntimeConfig cfg;
  MultiHarness h{2, cfg};
  // Occupy all 7 reconfigurable parts of FPGA 0 (5 ipsec-crypto exhaust the
  // BRAM headroom for big modules; 2 loopbacks take the remaining parts).
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(h.rt->load_pr("ipsec-crypto", 0).valid()) << i;
  }
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(h.rt->load_pr("loopback", 0).valid()) << i;
  }
  // No part left on FPGA 0; placement must spill to FPGA 1.
  const AccHandle spill = h.rt->search_by_name("md5-auth", 0);
  ASSERT_TRUE(spill.valid());
  EXPECT_EQ(spill.fpga_id, 1);
  h.sim.run_until(h.sim.now() + milliseconds(200));
  EXPECT_TRUE(h.rt->acc_ready(spill));
  EXPECT_TRUE(h.fpgas[1]->region_of("md5-auth").has_value());
}

TEST(RuntimeMultiFpga, SocketLocalFpgaPreferred) {
  RuntimeConfig cfg;  // 2 sockets
  MultiHarness h{2, cfg};  // fpga0 -> socket0, fpga1 -> socket1
  const AccHandle local0 = h.rt->search_by_name("loopback", 0);
  const AccHandle local1 = h.rt->search_by_name("md5-auth", 1);
  EXPECT_EQ(local0.fpga_id, 0);
  EXPECT_EQ(local1.fpga_id, 1);
}

TEST(RuntimeMultiFpga, TrafficFlowsThroughBothFpgas) {
  RuntimeConfig cfg;
  MultiHarness h{2, cfg};
  const netio::NfId nf0 = h.rt->register_nf("nf0", 0);
  const netio::NfId nf1 = h.rt->register_nf("nf1", 1);
  const AccHandle acc0 = h.rt->search_by_name("loopback", 0);
  const AccHandle acc1 = h.rt->search_by_name("loopback", 1);
  // Different sockets load their own copies on their local FPGAs.
  EXPECT_NE(acc0.fpga_id, acc1.fpga_id);
  h.sim.run_until(h.sim.now() + milliseconds(20));
  h.rt->start();

  for (int i = 0; i < 20; ++i) {
    Mbuf* a = h.make_pkt(nf0, acc0.acc_id, 128);
    Mbuf* b = h.make_pkt(nf1, acc1.acc_id, 128);
    h.rt->send_packets(nf0, &a, 1);
    h.rt->send_packets(nf1, &b, 1);
  }
  h.sim.run_until(h.sim.now() + milliseconds(1));

  Mbuf* out[32];
  EXPECT_EQ(DhlRuntime::receive_packets(h.rt->get_private_obq(nf0), out, 32),
            20u);
  for (int i = 0; i < 20; ++i) out[i]->release();
  EXPECT_EQ(DhlRuntime::receive_packets(h.rt->get_private_obq(nf1), out, 32),
            20u);
  for (int i = 0; i < 20; ++i) out[i]->release();
  EXPECT_GT(h.fpgas[0]->dma().tx_transfers(), 0u);
  EXPECT_GT(h.fpgas[1]->dma().tx_transfers(), 0u);
}

TEST(RuntimeFailure, CorruptedNfIdTagIsContained) {
  // A returned record whose wire nf_id claims an unregistered NF: the
  // Distributor must drop it (counted) instead of delivering it to anyone.
  // Admission stamps the sender's nf_id, so the corruption is injected on
  // the return path, in a hand-built completion.
  MultiHarness h;
  const netio::NfId nf = h.rt->register_nf("victim", 0);
  const AccHandle acc = h.rt->search_by_name("loopback", 0);
  h.sim.run_until(h.sim.now() + milliseconds(10));
  h.rt->start();

  Mbuf* evil = h.make_pkt(nf, acc.acc_id, 64);
  auto batch = std::make_unique<fpga::DmaBatch>(acc.acc_id);
  batch->append(/*nf_id=*/77, evil->payload(), evil);  // 77 never registered
  h.rt->distributor().enqueue_completion(0, std::move(batch));
  h.sim.run_until(h.sim.now() + microseconds(500));

  Mbuf* out[4];
  EXPECT_EQ(DhlRuntime::receive_packets(h.rt->get_private_obq(nf), out, 4), 0u);
  EXPECT_EQ(
      h.rt->telemetry().metrics.snapshot().sum("dhl.runtime.obq_drops"), 1);
  EXPECT_EQ(h.pool.in_use(), 0u);  // no leak
}

TEST(RuntimeDistributor, CompletionRingGrowsWithoutDropping) {
  // More completions land before the first RX poll than the initial ring
  // holds (1024 slots), and again after a partial drain has moved the
  // ring's head and wrapped its tail: each time the ring must grow in
  // place, and the drain must deliver every packet exactly once, in enqueue
  // order.  Completions are hand-built so nothing else is in flight.
  MultiHarness h;
  const netio::NfId nf = h.rt->register_nf("sink", 0);
  const AccHandle acc = h.rt->search_by_name("loopback", 0);
  h.sim.run_until(h.sim.now() + milliseconds(10));
  ASSERT_TRUE(h.rt->acc_ready(acc));

  Distributor& dist = h.rt->distributor();
  std::vector<Mbuf*> sent;
  auto enqueue = [&](std::size_t batches) {
    for (std::size_t b = 0; b < batches; ++b) {
      auto batch = std::make_unique<fpga::DmaBatch>(acc.acc_id);
      for (int i = 0; i < 2; ++i) {
        Mbuf* m = h.make_pkt(nf, acc.acc_id, 64);
        batch->append(nf, m->payload(), m);
        sent.push_back(m);
      }
      dist.enqueue_completion(0, std::move(batch));
    }
  };
  enqueue(1500);  // grows 1024 -> 2048 with the head at 0
  ASSERT_EQ(dist.completions_pending(0), 1500u);
  static_assert(Distributor::kRxBurst == 8);
  for (int i = 0; i < 100; ++i) dist.poll(0);  // head at 800
  ASSERT_EQ(dist.completions_pending(0), 700u);
  enqueue(1500);  // wraps, then grows 2048 -> 4096 with the head at 800
  ASSERT_EQ(dist.completions_pending(0), 2200u);

  h.rt->start();
  h.sim.run_until(h.sim.now() + milliseconds(20));
  EXPECT_EQ(dist.completions_pending(0), 0u);

  std::vector<Mbuf*> got(sent.size() + 1, nullptr);
  const std::size_t n = DhlRuntime::receive_packets(
      h.rt->get_private_obq(nf), got.data(), got.size());
  got.resize(n);
  EXPECT_EQ(got, sent);  // each once, FIFO across both growths
  const auto snap = h.rt->telemetry().metrics.snapshot();
  EXPECT_EQ(snap.sum("dhl.runtime.pkts_from_fpga"),
            static_cast<double>(sent.size()));
  EXPECT_EQ(snap.sum("dhl.runtime.obq_drops"), 0);
  h.rt->stop();
  for (Mbuf* m : got) m->release();
  EXPECT_EQ(h.pool.in_use(), 0u);
}

TEST(RuntimeFailure, UnconfiguredModuleFlagsWithoutCrashing) {
  // ipsec-crypto without acc_configure: every record returns kNotConfigured;
  // the system keeps running.
  MultiHarness h;
  const netio::NfId nf = h.rt->register_nf("nf0", 0);
  const AccHandle acc = h.rt->search_by_name("ipsec-crypto", 0);
  h.sim.run_until(h.sim.now() + milliseconds(40));
  ASSERT_TRUE(h.rt->acc_ready(acc));
  h.rt->start();

  Mbuf* m = h.make_pkt(nf, acc.acc_id, 200);
  h.rt->send_packets(nf, &m, 1);
  h.sim.run_until(h.sim.now() + microseconds(500));

  Mbuf* out[4];
  ASSERT_EQ(DhlRuntime::receive_packets(h.rt->get_private_obq(nf), out, 4), 1u);
  EXPECT_EQ(out[0]->accel_result(),
            accel::IpsecCryptoModule::kNotConfigured);
  out[0]->release();
}

TEST(RuntimeFailure, IbqBackpressureWhenTransferCoresStopped) {
  // With the runtime cores stopped, the IBQ fills and send_packets applies
  // backpressure instead of losing packets silently.
  RuntimeConfig cfg;
  cfg.ibq_size = 64;
  MultiHarness h{1, cfg};
  const netio::NfId nf = h.rt->register_nf("nf0", 0);
  const AccHandle acc = h.rt->search_by_name("loopback", 0);
  h.sim.run_until(h.sim.now() + milliseconds(10));
  // note: rt->start() intentionally NOT called

  std::size_t accepted = 0;
  for (int i = 0; i < 100; ++i) {
    Mbuf* m = h.make_pkt(nf, acc.acc_id, 64);
    if (h.rt->send_packets(nf, &m, 1) == 1) {
      ++accepted;
    } else {
      m->release();
    }
  }
  EXPECT_EQ(accepted, 63u);  // ring capacity
  // Only the packets the ring took count as admitted; the rest are
  // rejections the caller kept.
  const auto snap = h.rt->telemetry().metrics.snapshot();
  EXPECT_EQ(snap.sum("dhl.tenant.admitted_pkts"), 63);
  EXPECT_EQ(snap.sum("dhl.tenant.rejected_pkts"), 37);
}

}  // namespace
}  // namespace dhl::runtime
