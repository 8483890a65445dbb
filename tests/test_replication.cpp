// End-to-end replication tests: one hardware function on several PR
// regions/FPGAs, with the Packer redirecting batches via the dispatch
// policy (retagging records for the target device's Dispatcher).

#include <gtest/gtest.h>

#include <map>

#include "dhl/accel/catalog.hpp"
#include "dhl/fpga/device.hpp"
#include "dhl/netio/mempool.hpp"
#include "dhl/runtime/api.hpp"
#include "dhl/runtime/runtime.hpp"

namespace dhl::runtime {
namespace {

using fpga::FpgaDevice;
using netio::Mbuf;
using netio::MbufPool;

struct ReplHarness {
  sim::Simulator sim;
  std::vector<std::unique_ptr<FpgaDevice>> fpgas;
  std::unique_ptr<DhlRuntime> rt;
  MbufPool pool{"test", 8192, 2048, 0};

  explicit ReplHarness(int num_fpgas = 2, RuntimeConfig cfg = {}) {
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

  Mbuf* make_pkt(netio::NfId nf, netio::AccId acc, std::uint32_t len,
                 std::uint8_t fill = 0x42) {
    Mbuf* m = pool.alloc();
    m->assign(std::vector<std::uint8_t>(len, fill));
    m->set_nf_id(nf);
    m->set_acc_id(acc);
    m->set_rx_timestamp(sim.now() == 0 ? 1 : sim.now());
    return m;
  }

  void settle(Picos dt) { sim.run_until(sim.now() + dt); }
};

TEST(Replication, FacadeExposesPolicyAndReplicaRows) {
  RuntimeConfig cfg;
  cfg.dispatch_policy = DispatchPolicyKind::kLeastOutstandingBytes;
  ReplHarness h{2, cfg};
  EXPECT_STREQ(h.rt->dispatch_policy().name(), "least-outstanding-bytes");

  ASSERT_TRUE(DHL_search_by_name(*h.rt, "loopback", 0).valid());
  EXPECT_EQ(DHL_replicate(*h.rt, "loopback", 2), 2u);
  h.settle(milliseconds(50));

  const auto table = h.rt->function_table().snapshot();
  ASSERT_EQ(table.size(), 2u);
  EXPECT_NE(table[0].fpga_id, table[1].fpga_id);
  EXPECT_NE(table[0].acc_id, table[1].acc_id);  // replicas keep distinct ids
  for (const auto& row : table) EXPECT_TRUE(row.ready);

  h.rt->set_dispatch_policy(
      make_dispatch_policy(DispatchPolicyKind::kRoundRobin));
  EXPECT_STREQ(h.rt->dispatch_policy().name(), "round-robin");
}

TEST(Replication, RoundRobinSpreadsTrafficAndPacketsSurviveRetag) {
  RuntimeConfig cfg;
  cfg.dispatch_policy = DispatchPolicyKind::kRoundRobin;
  ReplHarness h{2, cfg};
  const netio::NfId nf = h.rt->register_nf("nf0", 0);
  const AccHandle acc = h.rt->search_by_name("loopback", 0);
  ASSERT_EQ(h.rt->replicate("loopback", 2), 2u);
  h.settle(milliseconds(50));
  h.rt->start();

  // Distinct fill byte per packet so payload integrity is checkable after
  // the policy redirects half the batches (and retags their records).
  constexpr int kPkts = 64;
  for (int i = 0; i < kPkts; ++i) {
    Mbuf* m = h.make_pkt(nf, acc.acc_id, 1000,
                         static_cast<std::uint8_t>(i));
    ASSERT_EQ(h.rt->send_packets(nf, &m, 1), 1u);
  }
  h.settle(milliseconds(2));

  Mbuf* out[kPkts];
  ASSERT_EQ(
      DhlRuntime::receive_packets(h.rt->get_private_obq(nf), out, kPkts),
      static_cast<std::size_t>(kPkts));
  std::map<std::uint8_t, int> seen;
  for (Mbuf* m : out) {
    ASSERT_EQ(m->data_len(), 1000u);
    seen[m->payload()[0]] += 1;
    m->release();
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kPkts));  // none lost/duped

  // Both boards carried traffic, and no record came back flagged (a broken
  // retag would hit the target Dispatcher's unmapped-acc path).
  EXPECT_GT(h.fpgas[0]->dma().tx_transfers(), 0u);
  EXPECT_GT(h.fpgas[1]->dma().tx_transfers(), 0u);
  EXPECT_EQ(h.fpgas[0]->dispatch_drops(), 0u);
  EXPECT_EQ(h.fpgas[1]->dispatch_drops(), 0u);
  EXPECT_EQ(h.rt->telemetry().metrics.snapshot().sum(
                "dhl.runtime.error_records"),
            0);
  EXPECT_EQ(h.pool.in_use(), 0u);

  // Per-replica dispatch accounting sees both replicas.
  for (const auto& row : h.rt->function_table().snapshot()) {
    ASSERT_NE(row.dispatch_batches, nullptr);
    EXPECT_GT(row.dispatch_batches->value(), 0u)
        << "replica on fpga " << row.fpga_id;
  }
}

TEST(Replication, LeastOutstandingBalancesAndDrains) {
  RuntimeConfig cfg;
  cfg.dispatch_policy = DispatchPolicyKind::kLeastOutstandingBytes;
  ReplHarness h{2, cfg};
  const netio::NfId nf = h.rt->register_nf("nf0", 0);
  const AccHandle acc = h.rt->search_by_name("loopback", 0);
  ASSERT_EQ(h.rt->replicate("loopback", 2), 2u);
  h.settle(milliseconds(50));
  h.rt->start();

  for (int i = 0; i < 64; ++i) {
    Mbuf* m = h.make_pkt(nf, acc.acc_id, 1000);
    ASSERT_EQ(h.rt->send_packets(nf, &m, 1), 1u);
  }
  h.settle(milliseconds(2));

  // Back-to-back full batches alternate between the two replicas: flushing
  // to one raises its outstanding bytes above the other's.
  for (const auto& row : h.rt->function_table().snapshot()) {
    EXPECT_GT(row.dispatch_batches->value(), 0u)
        << "replica on fpga " << row.fpga_id;
    // Fully drained once the Distributor retired every completion.
    EXPECT_EQ(row.outstanding_bytes, 0u);
  }
  EXPECT_EQ(h.rt->in_flight(), 0u);

  Mbuf* out[64];
  ASSERT_EQ(DhlRuntime::receive_packets(h.rt->get_private_obq(nf), out, 64),
            64u);
  for (Mbuf* m : out) m->release();
  EXPECT_EQ(h.pool.in_use(), 0u);
}

TEST(Replication, NumaLocalDefaultKeepsTrafficOnLocalBoard) {
  ReplHarness h{2};  // default policy: numa-local; fpga1 is on socket 1
  const netio::NfId nf = h.rt->register_nf("nf0", 0);
  const AccHandle acc = h.rt->search_by_name("loopback", 0);
  ASSERT_EQ(h.rt->replicate("loopback", 2), 2u);
  h.settle(milliseconds(50));
  h.rt->start();

  for (int i = 0; i < 32; ++i) {
    Mbuf* m = h.make_pkt(nf, acc.acc_id, 500);
    h.rt->send_packets(nf, &m, 1);
  }
  h.settle(milliseconds(2));

  // All flushes came from socket 0, so the remote replica stays cold.
  EXPECT_GT(h.fpgas[0]->dma().tx_transfers(), 0u);
  EXPECT_EQ(h.fpgas[1]->dma().tx_transfers(), 0u);

  Mbuf* out[32];
  ASSERT_EQ(DhlRuntime::receive_packets(h.rt->get_private_obq(nf), out, 32),
            32u);
  for (Mbuf* m : out) m->release();
}

TEST(Replication, UnloadRacingOpenBatchDropsPacketsLoudly) {
  // A batch opened by the Packer but not yet flushed when unload_function()
  // erases the entry must be released (counted), not submitted or leaked.
  ReplHarness h{1};
  const netio::NfId nf = h.rt->register_nf("nf0", 0);
  const AccHandle acc = h.rt->search_by_name("loopback", 0);
  h.settle(milliseconds(10));
  h.rt->start();

  // One small packet: far below the 6 KB cap, so the batch stays open until
  // the timeout flush (~15 us away).
  Mbuf* m = h.make_pkt(nf, acc.acc_id, 64);
  ASSERT_EQ(h.rt->send_packets(nf, &m, 1), 1u);
  h.settle(microseconds(3));  // packed into an open batch, not yet flushed
  ASSERT_EQ(h.rt->in_flight(), 1u);

  h.rt->unload_function("loopback");
  h.settle(microseconds(200));  // past the timeout flush

  Mbuf* out[4];
  EXPECT_EQ(DhlRuntime::receive_packets(h.rt->get_private_obq(nf), out, 4),
            0u);
  EXPECT_EQ(h.rt->in_flight(), 0u);
  EXPECT_EQ(h.pool.in_use(), 0u);
  EXPECT_GE(
      h.rt->telemetry().metrics.counter("dhl.runtime.unready_drops")->value(),
      1u);
}

}  // namespace
}  // namespace dhl::runtime
