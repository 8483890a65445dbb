// Unit + concurrency tests for the DPDK-style lockless ring.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "dhl/netio/ring.hpp"

namespace dhl::netio {
namespace {

TEST(Ring, RejectsNonPowerOfTwoSizes) {
  EXPECT_THROW((Ring<int>{"r", 3}), std::logic_error);
  EXPECT_THROW((Ring<int>{"r", 0}), std::logic_error);
  EXPECT_NO_THROW((Ring<int>{"r", 8}));
}

TEST(Ring, CapacityIsSizeMinusOne) {
  Ring<int> r{"r", 8};
  EXPECT_EQ(r.capacity(), 7u);
  EXPECT_TRUE(r.empty());
  EXPECT_FALSE(r.full());
}

TEST(Ring, FifoOrder) {
  Ring<int> r{"r", 16};
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(r.enqueue(i));
  for (int i = 0; i < 10; ++i) {
    int v = -1;
    EXPECT_TRUE(r.dequeue(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_TRUE(r.empty());
}

TEST(Ring, BulkIsAllOrNothing) {
  Ring<int> r{"r", 8};  // capacity 7
  std::vector<int> five(5, 1);
  EXPECT_EQ(r.enqueue_bulk(five), 5u);
  EXPECT_EQ(r.enqueue_bulk(five), 0u);  // 5 > 2 free slots
  EXPECT_EQ(r.count(), 5u);
  std::vector<int> out(7);
  EXPECT_EQ(r.dequeue_bulk(out), 0u);  // 7 > 5 available
  EXPECT_EQ(r.dequeue_bulk({out.data(), 5}), 5u);
}

TEST(Ring, BurstTakesWhatFits) {
  Ring<int> r{"r", 8};
  std::vector<int> ten(10);
  std::iota(ten.begin(), ten.end(), 0);
  EXPECT_EQ(r.enqueue_burst(ten), 7u);  // capacity
  EXPECT_TRUE(r.full());
  std::vector<int> out(10, -1);
  EXPECT_EQ(r.dequeue_burst(out), 7u);
  for (int i = 0; i < 7; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i);
}

TEST(Ring, CountsDropsOnFailedEnqueue) {
  Ring<int> r{"r", 4};
  std::vector<int> four(4, 9);
  EXPECT_EQ(r.enqueue_burst(four), 3u);
  EXPECT_EQ(r.enqueue_drops(), 1u);
  EXPECT_EQ(r.enqueue_bulk(four), 0u);
  EXPECT_EQ(r.enqueue_drops(), 5u);
  EXPECT_EQ(r.enqueued(), 3u);
}

TEST(Ring, WrapsAroundManyTimes) {
  Ring<int> r{"r", 8};
  int next_in = 0, next_out = 0;
  for (int round = 0; round < 1000; ++round) {
    const int n = 1 + round % 7;
    for (int i = 0; i < n; ++i) ASSERT_TRUE(r.enqueue(next_in++));
    for (int i = 0; i < n; ++i) {
      int v = -1;
      ASSERT_TRUE(r.dequeue(v));
      ASSERT_EQ(v, next_out++);
    }
  }
}

// --- concurrency properties ---------------------------------------------------

struct ConcurrencyCase {
  int producers;
  int consumers;
  SyncMode prod_mode;
  SyncMode cons_mode;
};

class RingConcurrency : public ::testing::TestWithParam<ConcurrencyCase> {};

// Property: under concurrent producers/consumers, every value is delivered
// exactly once (no loss, no duplication, no corruption).
TEST_P(RingConcurrency, ExactlyOnceDelivery) {
  const auto param = GetParam();
  constexpr std::uint64_t kPerProducer = 100'000;
  Ring<std::uint64_t> ring{"r", 1024, param.prod_mode, param.cons_mode};

  std::atomic<bool> done{false};
  std::vector<std::vector<std::uint64_t>> received(
      static_cast<std::size_t>(param.consumers));

  std::vector<std::thread> consumers;
  for (int c = 0; c < param.consumers; ++c) {
    consumers.emplace_back([&, c] {
      std::uint64_t buf[32];
      while (true) {
        const std::size_t n = ring.dequeue_burst({buf, 32});
        for (std::size_t i = 0; i < n; ++i) {
          received[static_cast<std::size_t>(c)].push_back(buf[i]);
        }
        if (n == 0 && done.load(std::memory_order_acquire) && ring.empty()) {
          break;
        }
        // Yield on an empty poll: with more spinning threads than cores,
        // a busy consumer can starve the producer it is waiting for.
        if (n == 0) std::this_thread::yield();
      }
    });
  }

  std::vector<std::thread> producers;
  for (int p = 0; p < param.producers; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        const std::uint64_t v =
            (static_cast<std::uint64_t>(p) << 32) | i;
        while (!ring.enqueue(v)) std::this_thread::yield();
      }
    });
  }
  for (auto& t : producers) t.join();
  done.store(true, std::memory_order_release);
  for (auto& t : consumers) t.join();

  std::vector<std::uint64_t> all;
  for (auto& v : received) all.insert(all.end(), v.begin(), v.end());
  ASSERT_EQ(all.size(), kPerProducer * static_cast<std::uint64_t>(param.producers));
  std::sort(all.begin(), all.end());
  EXPECT_TRUE(std::adjacent_find(all.begin(), all.end()) == all.end())
      << "duplicate delivery detected";
  // Per-producer completeness.
  for (int p = 0; p < param.producers; ++p) {
    const auto lo = std::lower_bound(all.begin(), all.end(),
                                     static_cast<std::uint64_t>(p) << 32);
    EXPECT_EQ(*lo, static_cast<std::uint64_t>(p) << 32);
  }
}

// Property: a single consumer observes each producer's values in order.
TEST(RingConcurrency, PerProducerOrderPreserved) {
  constexpr std::uint64_t kCount = 200'000;
  Ring<std::uint64_t> ring{"r", 512, SyncMode::kSingle, SyncMode::kSingle};
  std::vector<std::uint64_t> got;
  got.reserve(kCount);

  std::thread consumer([&] {
    std::uint64_t buf[64];
    while (got.size() < kCount) {
      const std::size_t n = ring.dequeue_burst({buf, 64});
      got.insert(got.end(), buf, buf + n);
    }
  });
  for (std::uint64_t i = 0; i < kCount; ++i) {
    while (!ring.enqueue(i)) {
    }
  }
  consumer.join();
  for (std::uint64_t i = 0; i < kCount; ++i) ASSERT_EQ(got[i], i);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, RingConcurrency,
    ::testing::Values(
        ConcurrencyCase{1, 1, SyncMode::kSingle, SyncMode::kSingle},
        ConcurrencyCase{4, 1, SyncMode::kMulti, SyncMode::kSingle},   // IBQ shape
        ConcurrencyCase{1, 4, SyncMode::kSingle, SyncMode::kMulti},
        ConcurrencyCase{4, 4, SyncMode::kMulti, SyncMode::kMulti}),
    [](const ::testing::TestParamInfo<ConcurrencyCase>& info) {
      const auto& p = info.param;
      return std::to_string(p.producers) + "p" + std::to_string(p.consumers) +
             "c";
    });

}  // namespace
}  // namespace dhl::netio
