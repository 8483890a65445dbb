// Unit tests for throughput meters and the latency histogram: moments,
// bin-edge exactness, the 1/64 error bound against a sorted-sample oracle,
// nearest-rank percentiles, shard merge and windowed diff.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "dhl/common/rng.hpp"
#include "dhl/sim/stats.hpp"

namespace dhl::sim {
namespace {

using H = LatencyHistogram;

TEST(ThroughputMeter, WireRateIncludesFraming) {
  ThroughputMeter m;
  // 14.88 Mpps of 64 B frames for 1 ms = 14880 frames -> 10 Gbps wire.
  for (int i = 0; i < 14'880; ++i) m.record_frame(64);
  const Bandwidth rate = m.wire_rate(milliseconds(1));
  EXPECT_NEAR(rate.gbps(), 10.0, 0.01);
  EXPECT_NEAR(m.pps(milliseconds(1)), 14.88e6, 1e4);
}

TEST(ThroughputMeter, ResetClears) {
  ThroughputMeter m;
  m.record_frame(1500);
  m.reset();
  EXPECT_EQ(m.frames(), 0u);
  EXPECT_DOUBLE_EQ(m.wire_rate(seconds(1)).gbps(), 0.0);
}

TEST(ThroughputMeter, ZeroElapsedIsZeroRate) {
  ThroughputMeter m;
  m.record_frame(64);
  EXPECT_DOUBLE_EQ(m.wire_rate(0).gbps(), 0.0);
  EXPECT_DOUBLE_EQ(m.pps(0), 0.0);
}

TEST(LatencyHistogram, BasicMoments) {
  LatencyHistogram h;
  h.record(microseconds(1));
  h.record(microseconds(2));
  h.record(microseconds(3));
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), microseconds(6));
  EXPECT_EQ(h.min(), microseconds(1));
  EXPECT_EQ(h.max(), microseconds(3));
  EXPECT_DOUBLE_EQ(h.mean(), static_cast<double>(microseconds(2)));
}

TEST(LatencyHistogram, PercentilesWithinBinResolution) {
  LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.record(microseconds(i));
  for (double q : {0.5, 0.99}) {
    const double exact = static_cast<double>(microseconds(1000 * q));
    EXPECT_GE(static_cast<double>(h.percentile(q)), exact) << "q=" << q;
    EXPECT_LE(static_cast<double>(h.percentile(q)),
              exact * (1.0 + H::kMaxRelativeError))
        << "q=" << q;
  }
  EXPECT_GE(h.percentile(1.0), h.percentile(0.5));
}

TEST(LatencyHistogram, EmptyIsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(0.5), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.min(), 0u);
}

TEST(LatencyHistogram, EdgeQuantiles) {
  LatencyHistogram h;
  for (int i = 1; i <= 100; ++i) h.record(microseconds(i));
  // q=0 ranks the first sample; q=1 is the observed max exactly.
  EXPECT_LE(h.percentile(0.0), h.percentile(0.01));
  EXPECT_GE(h.percentile(0.0), microseconds(1));
  EXPECT_LE(static_cast<double>(h.percentile(0.0)),
            microseconds(1) * (1.0 + H::kMaxRelativeError));
  EXPECT_EQ(h.percentile(1.0), microseconds(100));
}

TEST(LatencyHistogram, FullRangeSamplesReadBackWithinBound) {
  // The bins span all of uint64: zero, sub-nanosecond and UINT64_MAX
  // samples each read back inside their own bin, with no floor or ceiling
  // bin swallowing them.
  const std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  for (std::uint64_t v : {std::uint64_t{0}, std::uint64_t{1},
                          std::uint64_t{127}, std::uint64_t{500},
                          std::uint64_t{999}, seconds(100), kMax}) {
    LatencyHistogram h;
    h.record(v);
    EXPECT_EQ(h.min(), v);
    EXPECT_EQ(h.max(), v);
    EXPECT_EQ(h.percentile(0.5), v) << v;  // clamped to the observed max
  }
  LatencyHistogram h;
  for (std::uint64_t v : {std::uint64_t{0}, std::uint64_t{500}, kMax}) {
    h.record(v);
  }
  EXPECT_EQ(h.percentile(0.0), 0u);
  const double p50 = static_cast<double>(h.percentile(0.5));
  EXPECT_GE(p50, 500.0);
  EXPECT_LE(p50, 500.0 * (1.0 + H::kMaxRelativeError));
  EXPECT_EQ(h.percentile(1.0), kMax);
}

TEST(LatencyHistogram, ResetAfterRecords) {
  LatencyHistogram h;
  for (int i = 1; i <= 50; ++i) h.record(microseconds(i));
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(0.99), 0u);
  // Recording after reset starts a fresh distribution (no stale bins).
  h.record(microseconds(7));
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), microseconds(7));
  EXPECT_EQ(h.percentile(0.5), microseconds(7));
}

TEST(LatencyHistogram, MergeCombinesDistributions) {
  LatencyHistogram a, b;
  for (int i = 0; i < 100; ++i) a.record(microseconds(1));
  for (int i = 0; i < 100; ++i) b.record(microseconds(100));
  a.merge(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_EQ(a.min(), microseconds(1));
  EXPECT_EQ(a.max(), microseconds(100));
  EXPECT_DOUBLE_EQ(
      a.mean(), static_cast<double>(microseconds(1) + microseconds(100)) / 2);
  // Half the mass at 1 us, half at 100 us: p25 in the low mode, p75 high.
  EXPECT_NEAR(static_cast<double>(a.percentile(0.25)),
              static_cast<double>(microseconds(1)),
              microseconds(1) * H::kMaxRelativeError);
  EXPECT_EQ(a.percentile(0.75), microseconds(100));
}

TEST(LatencyHistogram, MergeWithEmptyKeepsMinMax) {
  LatencyHistogram a, b, c;
  a.record(microseconds(5));
  a.merge(b);  // merging an empty histogram must not fold its sentinel min
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.min(), microseconds(5));
  EXPECT_EQ(a.max(), microseconds(5));
  c.merge(a);  // merging into an empty histogram adopts the other's extremes
  EXPECT_EQ(c.count(), 1u);
  EXPECT_EQ(c.min(), microseconds(5));
  EXPECT_EQ(c.max(), microseconds(5));
}

TEST(LatencyHistogram, MonotoneQuantiles) {
  LatencyHistogram h;
  for (int i = 0; i < 10'000; ++i) {
    h.record(nanoseconds(100 + (i * 7919) % 100'000));
  }
  Picos prev = 0;
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
    const Picos v = h.percentile(q);
    EXPECT_GE(v, prev) << "quantile " << q;
    prev = v;
  }
}

TEST(LatencyHistogram, LowValuesLandInExactUnitBins) {
  // Everything below 2 * kSubCount maps to a unit-width bin: the bin IS the
  // value, so small samples are exact, not quantized.
  for (std::uint64_t v = 0; v < (H::kSubCount << 1); ++v) {
    const std::size_t i = H::bin_index(v);
    EXPECT_EQ(i, static_cast<std::size_t>(v));
    EXPECT_EQ(H::bin_lower(i), v);
    EXPECT_EQ(H::bin_upper(i), v);
  }
}

TEST(LatencyHistogram, BinEdgesAreExactAndContiguous) {
  // Exhaustive over the first buckets, then spot checks across the 64-bit
  // range: every value sits inside its bin's [lower, upper], and
  // upper(i) + 1 is exactly lower(i + 1).
  for (std::uint64_t v = 0; v < 1u << 16; ++v) {
    const std::size_t i = H::bin_index(v);
    EXPECT_LE(H::bin_lower(i), v);
    EXPECT_GE(H::bin_upper(i), v);
  }
  const std::uint64_t spots[] = {1ull << 20,        (1ull << 33) + 12345,
                                 1ull << 40,        (1ull << 52) - 1,
                                 (1ull << 62) + 99, ~0ull};
  for (std::uint64_t v : spots) {
    const std::size_t i = H::bin_index(v);
    EXPECT_LE(H::bin_lower(i), v);
    EXPECT_GE(H::bin_upper(i), v);
  }
  for (std::size_t i = 0; i + 1 < H::kBinCount; ++i) {
    ASSERT_EQ(H::bin_upper(i) + 1, H::bin_lower(i + 1)) << "bin " << i;
    ASSERT_EQ(H::bin_index(H::bin_upper(i) + 1), i + 1) << "bin " << i;
    ASSERT_EQ(H::bin_index(H::bin_lower(i)), i) << "bin " << i;
    ASSERT_EQ(H::bin_index(H::bin_upper(i)), i) << "bin " << i;
  }
  EXPECT_EQ(H::bin_upper(H::kBinCount - 1), ~0ull);
}

TEST(LatencyHistogram, RelativeBinWidthIsBounded) {
  // The quantization guarantee: a bin is never wider than
  // lower * 2^-kSubBits.
  for (std::size_t i = H::kSubCount << 1; i < H::kBinCount; i += 37) {
    const double lower = static_cast<double>(H::bin_lower(i));
    const double width =
        static_cast<double>(H::bin_upper(i) - H::bin_lower(i) + 1);
    EXPECT_LE(width, lower * H::kMaxRelativeError + 1.0) << "bin " << i;
  }
}

TEST(LatencyHistogram, PercentileMatchesSortedOracleWithinBound) {
  // 1e6 deterministic samples spanning twelve decades; the reported
  // percentile must be >= the nearest-rank oracle and within the relative
  // error bound.
  constexpr std::size_t kN = 1'000'000;
  Xoshiro256 rng{0x5eed5eedULL};
  LatencyHistogram h;
  std::vector<std::uint64_t> samples;
  samples.reserve(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    // Log-uniform-ish: scale by a random number of bits so every decade of
    // the distribution carries mass (tails included).
    const unsigned bits = static_cast<unsigned>(rng() % 40);
    const std::uint64_t v = rng() & ((1ull << bits) | ((1ull << bits) - 1));
    samples.push_back(v);
    h.record(v);
  }
  std::sort(samples.begin(), samples.end());

  ASSERT_EQ(h.count(), kN);
  EXPECT_EQ(h.min(), samples.front());
  EXPECT_EQ(h.max(), samples.back());
  for (double q : {0.01, 0.10, 0.25, 0.50, 0.90, 0.99, 0.999, 0.9999}) {
    const std::size_t rank = std::min(
        kN - 1, static_cast<std::size_t>(std::ceil(q * kN)) - 1);
    const std::uint64_t oracle = samples[rank];
    const std::uint64_t got = h.percentile(q);
    EXPECT_GE(got, oracle) << "q=" << q;
    EXPECT_LE(static_cast<double>(got),
              static_cast<double>(oracle) * (1.0 + H::kMaxRelativeError) + 1.0)
        << "q=" << q;
  }
  // The extremes clamp to observed samples exactly.
  EXPECT_EQ(h.percentile(1.0), samples.back());
  EXPECT_LE(h.percentile(0.0),
            samples.front() + samples.front() / H::kSubCount);
}

TEST(LatencyHistogram, PercentileRanksTheCeilQnthSample) {
  // percentile(q) reports the bin of the max(1, ceil(q * n))-th smallest
  // sample -- the rank perfbench's exact-latency cross-check uses.  One
  // sample per bin makes the rank visible: a rank off by one lands in a
  // neighbouring bin.
  for (std::size_t n = 1; n <= 300; ++n) {
    LatencyHistogram h;
    std::vector<std::uint64_t> sorted;
    for (std::size_t i = 0; i < n; ++i) {
      sorted.push_back(H::bin_lower(200 + 3 * i) + 1);
      h.record(sorted.back());
    }
    for (double q : {0.0, 0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
      const auto rank = std::max<std::size_t>(
          1, static_cast<std::size_t>(std::ceil(q * static_cast<double>(n))));
      const std::uint64_t want = std::min(
          H::bin_upper(H::bin_index(sorted[rank - 1])), sorted.back());
      ASSERT_EQ(h.percentile(q), want) << "n=" << n << " q=" << q;
    }
  }
  // The former HDR rank, (q * n + 0.9999999), agrees with ceil(q * n) at
  // the quantiles the SLO watchdog evaluates, so SLO windows rank the same
  // samples as before.
  for (std::uint64_t n = 1; n <= 1'000'000; ++n) {
    for (double q : {0.5, 0.9, 0.99, 0.999}) {
      const double qn = q * static_cast<double>(n);
      ASSERT_EQ(static_cast<std::uint64_t>(std::ceil(qn)),
                static_cast<std::uint64_t>(qn + 0.9999999))
          << "n=" << n << " q=" << q;
    }
  }
}

TEST(LatencyHistogram, RecordNEquivalentToRepeatedRecord) {
  LatencyHistogram a, b;
  a.record_n(777, 1000);
  for (int i = 0; i < 1000; ++i) b.record(777);
  a.record_n(5, 0);  // zero samples touch nothing
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.sum(), b.sum());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.percentile(0.5), b.percentile(0.5));
  EXPECT_EQ(a.percentile(0.999), b.percentile(0.999));
}

TEST(LatencyHistogram, ShardMergeEqualsSingleHistogram) {
  // Shards merged bin-wise must be indistinguishable from one histogram
  // that saw every sample.
  Xoshiro256 rng{42};
  LatencyHistogram shard_a, shard_b, combined;
  for (std::size_t i = 0; i < 100'000; ++i) {
    const std::uint64_t v = rng() % 5'000'000;
    combined.record(v);
    (i % 2 == 0 ? shard_a : shard_b).record(v);
  }
  shard_a.merge(shard_b);
  EXPECT_EQ(shard_a.count(), combined.count());
  EXPECT_EQ(shard_a.sum(), combined.sum());
  EXPECT_EQ(shard_a.min(), combined.min());
  EXPECT_EQ(shard_a.max(), combined.max());
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    EXPECT_EQ(shard_a.percentile(q), combined.percentile(q)) << "q=" << q;
  }
}

TEST(LatencyHistogram, DiffSinceIsolatesTheWindow) {
  // Cumulative-histogram subtraction: the diff sees only the samples
  // recorded after the baseline copy -- the SLO watchdog's windowed view.
  LatencyHistogram cum;
  for (int i = 0; i < 1000; ++i) cum.record(10);  // old regime: fast
  const LatencyHistogram baseline = cum;
  for (int i = 0; i < 500; ++i) cum.record(4000);  // new regime: slow
  const LatencyHistogram window = cum.diff_since(baseline);
  EXPECT_EQ(window.count(), 500u);
  EXPECT_EQ(window.sum(), 500u * 4000u);
  EXPECT_GE(window.percentile(0.5), 4000u);
  EXPECT_GE(window.min(), 4000u - 4000u / H::kSubCount);
  // An empty window diff is empty, not negative.
  const LatencyHistogram empty = cum.diff_since(cum);
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_EQ(empty.percentile(0.99), 0u);
}

}  // namespace
}  // namespace dhl::sim
