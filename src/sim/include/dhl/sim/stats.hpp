#pragma once

// Measurement utilities: throughput meters and the latency histogram.
//
// Latencies are recorded into HDR bins whose width is at most 1/64 of the
// value (exact below 128 ps), so a reported p50/p99 is within 1.6% of the
// true sample -- far below the calibration uncertainty of the timing model
// itself.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "dhl/common/units.hpp"

namespace dhl::sim {

/// Counts frames and wire bytes over a measurement window.
class ThroughputMeter {
 public:
  /// Record one frame of `frame_len` bytes (wire overhead added internally).
  void record_frame(std::uint32_t frame_len) {
    ++frames_;
    wire_bytes_ += wire_bytes(frame_len);
    payload_bytes_ += frame_len;
  }

  void reset() { frames_ = wire_bytes_ = payload_bytes_ = 0; }

  std::uint64_t frames() const { return frames_; }
  std::uint64_t payload_bytes() const { return payload_bytes_; }

  /// Wire-rate throughput over an elapsed virtual duration.
  Bandwidth wire_rate(Picos elapsed) const {
    if (elapsed == 0) return Bandwidth::bits_per_sec(0);
    return Bandwidth::bits_per_sec(static_cast<double>(wire_bytes_) * 8.0 /
                                   to_seconds(elapsed));
  }

  /// Packets per second over an elapsed virtual duration.
  double pps(Picos elapsed) const {
    if (elapsed == 0) return 0;
    return static_cast<double>(frames_) / to_seconds(elapsed);
  }

 private:
  std::uint64_t frames_ = 0;
  std::uint64_t wire_bytes_ = 0;
  std::uint64_t payload_bytes_ = 0;
};

/// The repository's one histogram: latencies in picoseconds, and other
/// integer samples (batch fill in ppm) on the same bins.
///
/// HDR layout: values below 2 * 2^kSubBits land in exact unit-width bins;
/// above that, every range [2^k, 2^(k+1)) splits into 2^kSubBits linear
/// sub-bins.  Bin edges are exact integers (bin_lower/bin_upper), a bin is
/// never wider than 1/64 of its lower edge, and the bins cover the whole
/// uint64 range, so no sample is clamped into an end bin.
///
/// Not thread-safe: single writer (the simulation thread).  Exporters copy.
class LatencyHistogram {
 public:
  /// Linear sub-bins per range [2^k, 2^(k+1)), as a base-2 exponent.
  static constexpr unsigned kSubBits = 6;
  static constexpr std::uint64_t kSubCount = 1ull << kSubBits;
  /// Relative quantization error bound: percentile(q) is never more than
  /// value * kMaxRelativeError above the true sample.
  static constexpr double kMaxRelativeError =
      1.0 / static_cast<double>(kSubCount);
  /// 2 * kSubCount unit bins, then kSubCount per remaining range.
  static constexpr std::size_t kBinCount =
      ((64 - kSubBits - 1) << kSubBits) + (kSubCount << 1);

  LatencyHistogram() : bins_(kBinCount, 0) {}

  /// Bin holding value `v`.  Contiguous: bin_index(v)+1 == bin_index of the
  /// first value past bin_upper(bin_index(v)).
  static std::size_t bin_index(std::uint64_t v) {
    if (v < kSubCount) return static_cast<std::size_t>(v);
    const unsigned msb = 63u - static_cast<unsigned>(__builtin_clzll(v));
    const unsigned shift = msb - kSubBits;
    return (static_cast<std::size_t>(shift) << kSubBits) +
           static_cast<std::size_t>(v >> shift);
  }

  /// Smallest value mapping to bin `i`.
  static std::uint64_t bin_lower(std::size_t i) {
    if (i < (kSubCount << 1)) return i;
    const unsigned shift = static_cast<unsigned>((i >> kSubBits) - 1);
    return (kSubCount + (i & (kSubCount - 1))) << shift;
  }

  /// Largest value mapping to bin `i` (inclusive).
  static std::uint64_t bin_upper(std::size_t i) {
    if (i < (kSubCount << 1)) return i;
    const unsigned shift = static_cast<unsigned>((i >> kSubBits) - 1);
    return bin_lower(i) + ((1ull << shift) - 1);
  }

  void record(std::uint64_t v) { record_n(v, 1); }

  /// Record `n` identical samples with one bin touch -- the batched stages
  /// move whole batches between the same two timestamps.
  void record_n(std::uint64_t v, std::uint64_t n) {
    if (n == 0) return;
    count_ += n;
    sum_ += v * n;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
    bins_[bin_index(v)] += n;
  }

  void reset() {
    std::fill(bins_.begin(), bins_.end(), 0);
    count_ = 0;
    sum_ = 0;
    min_ = std::numeric_limits<std::uint64_t>::max();
    max_ = 0;
  }

  /// Bin-wise addition of another histogram (per-component shards folded
  /// into one distribution at read time).
  void merge(const LatencyHistogram& other) {
    if (other.count_ == 0) return;
    for (std::size_t i = 0; i < kBinCount; ++i) bins_[i] += other.bins_[i];
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }

  /// Windowed view: the samples recorded since `baseline`, an earlier copy
  /// of this cumulative histogram.  The SLO watchdog evaluates these.
  LatencyHistogram diff_since(const LatencyHistogram& baseline) const {
    LatencyHistogram out;
    for (std::size_t i = 0; i < kBinCount; ++i) {
      // A shrinking bin means `baseline` is not an earlier snapshot of this
      // series; clamp rather than wrap.
      const std::uint64_t n =
          bins_[i] > baseline.bins_[i] ? bins_[i] - baseline.bins_[i] : 0;
      if (n == 0) continue;
      out.bins_[i] = n;
      out.count_ += n;
      out.min_ = std::min(out.min_, bin_lower(i));
      out.max_ = std::min(bin_upper(i), max_);
    }
    out.sum_ = sum_ > baseline.sum_ ? sum_ - baseline.sum_ : 0;
    return out;
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t min() const { return count_ > 0 ? min_ : 0; }
  std::uint64_t max() const { return max_; }
  double mean() const {
    return count_ > 0 ? static_cast<double>(sum_) / static_cast<double>(count_)
                      : 0.0;
  }

  /// Value at quantile `q` in [0,1]: the upper edge of the bin holding the
  /// max(1, ceil(q * count))-th smallest sample (nearest rank), clamped to
  /// max() -- never below that sample, at most kMaxRelativeError above it.
  std::uint64_t percentile(double q) const {
    if (count_ == 0) return 0;
    const double rank =
        std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(count_));
    const std::uint64_t target = std::clamp<std::uint64_t>(
        static_cast<std::uint64_t>(rank), 1, count_);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBinCount; ++i) {
      seen += bins_[i];
      if (seen >= target) return std::min(bin_upper(i), max_);
    }
    return max_;
  }

 private:
  std::vector<std::uint64_t> bins_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_ = 0;
};

}  // namespace dhl::sim
