// Unit tests for the PCIe DMA engine model (Figure 4's cost structure).

#include <gtest/gtest.h>

#include "dhl/fpga/dma.hpp"

namespace dhl::fpga {
namespace {

DmaBatchPtr make_batch(std::size_t bytes) {
  auto b = std::make_unique<DmaBatch>(0);
  b->append(0, std::vector<std::uint8_t>(bytes - kRecordHeaderBytes, 0x5a),
            nullptr);
  return b;
}

TEST(DmaModel, LatencyGrowsWithSize) {
  sim::Simulator sim;
  DmaEngine dma{sim, sim::DmaParams{}};
  const Picos small = dma.one_way_latency(64, false);
  const Picos big = dma.one_way_latency(64 * 1024, false);
  EXPECT_LT(small, big);
  // Round trip at 64 B ~ 2 us (Fig 4b).
  EXPECT_NEAR(to_microseconds(2 * small), 2.0, 0.3);
}

TEST(DmaModel, SixKilobyteKneeFig4) {
  sim::Simulator sim;
  DmaEngine dma{sim, sim::DmaParams{}};
  // Effective throughput = size / occupancy; must be monotone nondecreasing
  // and reach ~42 Gbps at >= 6 KB.
  double prev = 0;
  for (const std::size_t size :
       {64u, 128u, 256u, 512u, 1024u, 2048u, 4096u, 6144u, 8192u, 65536u}) {
    const double gbps =
        static_cast<double>(size) * 8.0 / to_seconds(dma.occupancy(size)) / 1e9;
    EXPECT_GE(gbps, prev - 1e-9) << size;
    prev = gbps;
  }
  const double at_6k = 6144 * 8.0 / to_seconds(dma.occupancy(6144)) / 1e9;
  const double at_64k = 65536 * 8.0 / to_seconds(dma.occupancy(65536)) / 1e9;
  EXPECT_NEAR(at_6k, 42.0, 1.5);
  EXPECT_NEAR(at_64k, 42.0, 0.5);  // sustained cap
  const double at_64 = 64 * 8.0 / to_seconds(dma.occupancy(64)) / 1e9;
  EXPECT_LT(at_64, 5.0);  // small transfers are overhead-bound
}

TEST(DmaModel, InKernelDriverIsWorse) {
  sim::Simulator sim;
  DmaEngine uio{sim, sim::DmaParams{}, DmaDriver::kUioPoll};
  DmaEngine kern{sim, sim::DmaParams{}, DmaDriver::kInKernel};
  for (const std::size_t size : {64u, 1024u, 6144u, 65536u}) {
    EXPECT_GT(kern.occupancy(size), uio.occupancy(size)) << size;
    EXPECT_GT(kern.one_way_latency(size, false),
              uio.one_way_latency(size, false))
        << size;
  }
  // Fig 4b: in-kernel round trip ~10 ms.
  EXPECT_NEAR(to_milliseconds(2 * kern.one_way_latency(64, false)), 10.0, 1.0);
}

TEST(DmaModel, NumaRemotePenaltyIsSmall) {
  sim::Simulator sim;
  DmaEngine dma{sim, sim::DmaParams{}};
  const Picos local = dma.one_way_latency(6144, false);
  const Picos remote = dma.one_way_latency(6144, true);
  // Paper IV-A2: ~0.4 us extra round trip, no throughput change.
  EXPECT_NEAR(to_microseconds(2 * (remote - local)), 0.4, 0.05);
  EXPECT_EQ(dma.occupancy(6144), dma.occupancy(6144));
}

TEST(DmaEngine, DeliversBatchesInOrderWithSerialization) {
  sim::Simulator sim;
  DmaEngine dma{sim, sim::DmaParams{}};
  std::vector<std::pair<Picos, std::size_t>> deliveries;
  dma.set_tx_deliver([&](DmaBatchPtr b) {
    deliveries.emplace_back(sim.now(), b->size_bytes());
  });
  dma.submit_tx(make_batch(6144));
  dma.submit_tx(make_batch(6144));
  dma.submit_tx(make_batch(6144));
  sim.run();
  ASSERT_EQ(deliveries.size(), 3u);
  // Channel serialization: deliveries spaced by at least the occupancy.
  const Picos occ = dma.occupancy(6144);
  EXPECT_GE(deliveries[1].first - deliveries[0].first, occ);
  EXPECT_GE(deliveries[2].first - deliveries[1].first, occ);
  EXPECT_EQ(dma.tx_transfers(), 3u);
  EXPECT_EQ(dma.tx_bytes(), 3 * 6144u);
}

TEST(DmaEngine, TxAndRxChannelsAreIndependent) {
  sim::Simulator sim;
  DmaEngine dma{sim, sim::DmaParams{}};
  Picos tx_done = 0, rx_done = 0;
  dma.set_tx_deliver([&](DmaBatchPtr) { tx_done = sim.now(); });
  dma.set_rx_deliver([&](DmaBatchPtr) { rx_done = sim.now(); });
  dma.submit_tx(make_batch(6144));
  dma.submit_rx(make_batch(6144));
  sim.run();
  // Full duplex: both complete at the same one-way latency.
  EXPECT_EQ(tx_done, rx_done);
  EXPECT_EQ(dma.rx_transfers(), 1u);
}

TEST(DmaEngine, StampsTransferSeamsOnAnIdleChannel) {
  // No telemetry wired: the seam stamps are all the engine reports about a
  // batch's round trip, and on an idle channel each is submit + one-way.
  sim::Simulator sim;
  DmaEngine dma{sim, sim::DmaParams{}};
  DmaBatchPtr done;
  dma.set_tx_deliver([&](DmaBatchPtr b) { done = std::move(b); });
  dma.set_rx_deliver([&](DmaBatchPtr b) { done = std::move(b); });
  const Picos one_way = dma.one_way_latency(1024, false);

  sim.run_until(microseconds(3));
  const Picos tx_submit = sim.now();
  dma.submit_tx(make_batch(1024));
  sim.run();
  ASSERT_NE(done, nullptr);
  EXPECT_EQ(done->tx_done_at, tx_submit + one_way);
  EXPECT_EQ(done->rx_submitted_at, 0u);
  EXPECT_EQ(done->rx_done_at, 0u);
  EXPECT_EQ(done->flushed_at, 0u);  // the Packer's stamp, not the engine's

  sim.run_until(sim.now() + microseconds(5));
  const Picos rx_submit = sim.now();
  dma.submit_rx(std::move(done));
  sim.run();
  ASSERT_NE(done, nullptr);
  EXPECT_EQ(done->tx_done_at, tx_submit + one_way);
  EXPECT_EQ(done->rx_submitted_at, rx_submit);
  EXPECT_EQ(done->rx_done_at, rx_submit + one_way);
}

TEST(DmaEngine, MissingDeliverHookIsAnError) {
  sim::Simulator sim;
  DmaEngine dma{sim, sim::DmaParams{}};
  EXPECT_THROW(dma.submit_tx(make_batch(256)), std::logic_error);
}

}  // namespace
}  // namespace dhl::fpga
