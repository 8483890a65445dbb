// Metric-snapshot consistency under concurrency (DESIGN.md section 7): the
// simulation thread keeps writing instruments and registering new series
// while another thread snapshots.  Run under TSan this is the regression
// test for the torn-label-set bug: snapshot() must never observe a
// half-inserted registry entry, and counter updates must not race the
// value copies.
//
// Contract bounds (metrics.hpp): one writer thread for values + registration;
// histograms are excluded here because they are documented sim-thread-only.

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dhl/telemetry/metrics.hpp"

namespace dhl::telemetry {
namespace {

TEST(MetricsConcurrency, SnapshotsAreCoherentWhileWriterRuns) {
  MetricsRegistry reg;
  Counter* hot = reg.counter("dhl.test.hot");
  Gauge* level = reg.gauge("dhl.test.level");

  constexpr int kIterations = 50'000;
  std::atomic<bool> started{false};
  std::atomic<bool> done{false};

  std::thread writer([&] {
    // Start latch: the writer must not finish before the reader is
    // snapshotting, or the test exercises nothing concurrent.
    while (!started.load(std::memory_order_acquire)) std::this_thread::yield();
    for (int i = 0; i < kIterations; ++i) {
      hot->add(1);
      level->set(static_cast<double>(i));
      // Register a new labelled series every few iterations: this is the
      // operation that used to tear under a concurrent snapshot.
      if (i % 50 == 0) {
        reg.counter("dhl.test.dyn",
                    {{"shard", std::to_string(i % 97)},
                     {"kind", "stress"}})
            ->add(1);
      }
    }
    done.store(true, std::memory_order_release);
  });

  std::uint64_t snapshots_taken = 0;
  double last_hot = 0;
  started.store(true, std::memory_order_release);
  do {
    const MetricsSnapshot snap = reg.snapshot(123);
    snapshots_taken++;
    for (const MetricSample& s : snap.samples) {
      // A torn entry would surface as an empty name or a label pair with an
      // empty key -- assert full coherence of everything we can see.
      ASSERT_FALSE(s.name.empty());
      for (const auto& [k, v] : s.labels) {
        ASSERT_FALSE(k.empty());
        ASSERT_FALSE(v.empty());
      }
    }
    const MetricSample* h = snap.find("dhl.test.hot");
    ASSERT_NE(h, nullptr);
    // Counters are monotone: a later snapshot can never show less.
    ASSERT_GE(h->value, last_hot);
    last_hot = h->value;
  } while (!done.load(std::memory_order_acquire));
  writer.join();

  EXPECT_GT(snapshots_taken, 0u);
  const MetricsSnapshot final_snap = reg.snapshot(456);
  EXPECT_DOUBLE_EQ(final_snap.find("dhl.test.hot")->value,
                   static_cast<double>(kIterations));
  EXPECT_DOUBLE_EQ(final_snap.find("dhl.test.level")->value,
                   static_cast<double>(kIterations - 1));
  EXPECT_DOUBLE_EQ(final_snap.sum("dhl.test.dyn"),
                   static_cast<double>(kIterations / 50));
  // series_count is also readable mid-flight; by now it must cover the hot
  // pair plus every dynamic shard.
  EXPECT_EQ(reg.series_count(), 2u + 97u);
}

TEST(MetricsConcurrency, ParallelReadersShareOneWriter) {
  MetricsRegistry reg;
  Counter* hot = reg.counter("dhl.test.hot");
  std::atomic<bool> done{false};

  std::thread writer([&] {
    for (int i = 0; i < 20'000; ++i) {
      hot->add(1);
      if (i % 100 == 0) {
        reg.gauge("dhl.test.g", {{"i", std::to_string(i)}})->set(i);
      }
    }
    done.store(true, std::memory_order_release);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        const MetricsSnapshot snap = reg.snapshot();
        ASSERT_LE(snap.find("dhl.test.hot")->value, 20'000.0);
        reg.series_count();
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_DOUBLE_EQ(reg.snapshot().find("dhl.test.hot")->value, 20'000.0);
}

}  // namespace
}  // namespace dhl::telemetry
