// Unit tests for the per-socket DmaBatch recycling pool.

#include <gtest/gtest.h>

#include "dhl/runtime/batch_pool.hpp"

namespace dhl::runtime {
namespace {

struct PoolHarness {
  telemetry::TelemetryPtr tel = telemetry::make_telemetry();
  BatchPoolSet pools{2, /*capacity_per_socket=*/4, /*reserve_bytes=*/6160,
                     *tel};
};

TEST(BatchPool, RecycleReusesTheSameBatch) {
  PoolHarness h;
  fpga::DmaBatchPtr batch = h.pools.acquire(0, 7);
  ASSERT_NE(batch, nullptr);
  EXPECT_EQ(batch->acc_id(), 7);
  EXPECT_EQ(batch->pool_socket(), 0);
  EXPECT_EQ(h.pools.pool(0).misses(), 1u);  // cold start

  fpga::DmaBatch* raw = batch.get();
  h.pools.recycle(std::move(batch));
  EXPECT_EQ(h.pools.pool(0).available(), 1u);

  fpga::DmaBatchPtr again = h.pools.acquire(0, 9);
  EXPECT_EQ(again.get(), raw);  // same object, no allocation
  EXPECT_EQ(again->acc_id(), 9);
  EXPECT_TRUE(again->empty());
  EXPECT_EQ(h.pools.pool(0).hits(), 1u);
  EXPECT_EQ(h.pools.pool(0).misses(), 1u);
}

TEST(BatchPool, RecycleResetsRecordsButKeepsCapacity) {
  PoolHarness h;
  fpga::DmaBatchPtr batch = h.pools.acquire(0, 1);
  const std::vector<std::uint8_t> data(100, 0xab);
  batch->append(2, data, nullptr);
  batch->batch_id = 42;
  batch->submitted_bytes = 99;
  const std::size_t cap = batch->buffer().capacity();
  EXPECT_GE(cap, 6160u);

  h.pools.recycle(std::move(batch));
  fpga::DmaBatchPtr again = h.pools.acquire(0, 3);
  EXPECT_TRUE(again->empty());
  EXPECT_EQ(again->size_bytes(), 0u);
  EXPECT_EQ(again->pkts().size(), 0u);
  EXPECT_EQ(again->batch_id, 0u);
  EXPECT_EQ(again->submitted_bytes, 0u);
  EXPECT_EQ(again->buffer().capacity(), cap);  // 6 KB buffer survived
}

TEST(BatchPool, RecycleClearsSeamStamps) {
  // A pooled batch must not carry its last round trip's seam times into
  // the next one: the runtime books stages from them.
  PoolHarness h;
  fpga::DmaBatchPtr batch = h.pools.acquire(0, 1);
  batch->first_pkt_enqueued_at = microseconds(1);
  batch->flushed_at = microseconds(2);
  batch->tx_done_at = microseconds(3);
  batch->rx_submitted_at = microseconds(4);
  batch->rx_done_at = microseconds(5);
  fpga::DmaBatch* raw = batch.get();

  h.pools.recycle(std::move(batch));
  fpga::DmaBatchPtr again = h.pools.acquire(0, 1);
  ASSERT_EQ(again.get(), raw);
  EXPECT_EQ(again->first_pkt_enqueued_at, 0u);
  EXPECT_EQ(again->flushed_at, 0u);
  EXPECT_EQ(again->tx_done_at, 0u);
  EXPECT_EQ(again->rx_submitted_at, 0u);
  EXPECT_EQ(again->rx_done_at, 0u);
}

TEST(BatchPool, ExhaustionFallsBackToAllocation) {
  PoolHarness h;
  // More batches in flight than the pool's capacity (4): every acquire
  // still succeeds, the extras are counted as misses.
  std::vector<fpga::DmaBatchPtr> in_flight;
  for (int i = 0; i < 7; ++i) {
    fpga::DmaBatchPtr b = h.pools.acquire(0, 1);
    ASSERT_NE(b, nullptr);
    in_flight.push_back(std::move(b));
  }
  EXPECT_EQ(h.pools.pool(0).misses(), 7u);

  // Recycling all 7 fills the free list to capacity and deletes the rest.
  for (auto& b : in_flight) h.pools.recycle(std::move(b));
  EXPECT_EQ(h.pools.pool(0).available(), 4u);

  // Steady state from here: acquires within capacity are all hits.
  for (int i = 0; i < 4; ++i) in_flight[static_cast<std::size_t>(i)] =
      h.pools.acquire(0, 1);
  EXPECT_EQ(h.pools.pool(0).hits(), 4u);
  EXPECT_EQ(h.pools.pool(0).misses(), 7u);
}

TEST(BatchPool, CrossSocketRecycleRoutesHome) {
  PoolHarness h;
  fpga::DmaBatchPtr b0 = h.pools.acquire(0, 1);
  fpga::DmaBatchPtr b1 = h.pools.acquire(1, 1);
  EXPECT_EQ(b0->pool_socket(), 0);
  EXPECT_EQ(b1->pool_socket(), 1);

  // Recycle order does not matter: each batch lands in its home pool even
  // when the other socket's Distributor drained it.
  h.pools.recycle(std::move(b1));
  h.pools.recycle(std::move(b0));
  EXPECT_EQ(h.pools.pool(0).available(), 1u);
  EXPECT_EQ(h.pools.pool(1).available(), 1u);

  // And socket 1's free batch is never handed out by socket 0's pool.
  fpga::DmaBatchPtr again = h.pools.acquire(0, 2);
  EXPECT_EQ(again->pool_socket(), 0);
  EXPECT_EQ(h.pools.pool(1).available(), 1u);
}

TEST(BatchPool, ForeignBatchIsDeletedNotPooled) {
  PoolHarness h;
  // A batch built outside any pool (tests, teardown stragglers) has no
  // home socket; recycle must delete it, not adopt it.
  auto foreign = std::make_unique<fpga::DmaBatch>(1, 64);
  EXPECT_EQ(foreign->pool_socket(), -1);
  h.pools.recycle(std::move(foreign));
  EXPECT_EQ(h.pools.pool(0).available(), 0u);
  EXPECT_EQ(h.pools.pool(1).available(), 0u);
}

}  // namespace
}  // namespace dhl::runtime
