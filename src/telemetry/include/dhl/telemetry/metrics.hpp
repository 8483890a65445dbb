#pragma once

// MetricsRegistry: named, label-tagged counters, gauges and histograms.
//
// Components register their instruments once at construction (registration
// does string work and allocates); the returned pointers are stable for the
// registry's lifetime, so hot paths pay one pointer chase per update --
// the same discipline DPDK's xstats and Prometheus client libraries use.
//
// Naming convention (see DESIGN.md "Observability"): `dhl.<component>.<name>`
// with lowercase snake_case names, e.g. `dhl.runtime.pkts_to_fpga`.  Label
// sets distinguish series of the same metric (`{nf=ipsec-dhl, acc=0}`).
//
// Snapshots are value copies: exporters (Prometheus text, JSON, the periodic
// sampler) serialize a snapshot, never the live registry, so a snapshot taken
// at virtual time T stays consistent even while the simulation keeps running.
//
// Concurrency contract (introspection layer): the simulation thread is the
// only *writer* of instrument values and the only thread that registers new
// series, but snapshot() may be called while it runs (tests, ad-hoc
// exporters).  Counter/Gauge therefore use relaxed atomics -- a plain
// load/op/store, NOT fetch_add: under the single-writer discipline the RMW
// never races with another writer, and avoiding the locked instruction
// keeps Counter::add at ordinary-store cost on the hot path.  The series
// map itself is mutex-guarded so a snapshot never observes a half-inserted
// entry (torn label sets).  Histograms stay unsynchronized and must only be
// touched from the simulation thread.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dhl/common/units.hpp"
#include "dhl/sim/stats.hpp"

namespace dhl::telemetry {

/// (key, value) pairs identifying one series of a metric.  Canonicalized
/// (sorted by key) on registration, so label order never splits a series.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// Monotonic event count.  Single-writer; see the concurrency contract in
/// the header comment for why this is load/store rather than fetch_add.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.store(value_.load(std::memory_order_relaxed) + n,
                 std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time level (queue depth, utilization, EWMA rate).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double d) {
    value_.store(value_.load(std::memory_order_relaxed) + d,
                 std::memory_order_relaxed);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

/// One series, frozen at snapshot time.
struct MetricSample {
  std::string name;
  Labels labels;
  MetricKind kind = MetricKind::kCounter;
  /// Counter / gauge value; histogram sample count.
  double value = 0;
  // Histogram-only summary (same unit as the recorded samples).
  std::uint64_t count = 0;
  Picos min = 0;
  Picos max = 0;
  Picos mean = 0;
  Picos p50 = 0;
  Picos p90 = 0;
  Picos p99 = 0;
  Picos p999 = 0;
};

struct MetricsSnapshot {
  /// Virtual time the snapshot was taken at.
  Picos at = 0;
  std::vector<MetricSample> samples;

  /// First sample matching `name` (and `labels`, when non-empty: every given
  /// pair must be present in the sample's label set).  Null when absent.
  const MetricSample* find(std::string_view name,
                           const Labels& labels = {}) const;

  /// Sum of `value` over every series of `name` matching `labels` (same
  /// subset semantics as find()).  Zero when no series matches -- use for
  /// label-fanned counters like dhl.fault.injected{site, kind}.
  double sum(std::string_view name, const Labels& labels = {}) const;

  /// Prometheus text exposition format ('.' in names becomes '_').
  std::string to_prometheus() const;
  /// JSON object: {"at_ps": ..., "metrics": [{...}, ...]}.
  std::string to_json() const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create; the same (name, labels) always returns the same
  /// instrument, so independent components can share a series.  A name
  /// registered with a different kind throws.
  Counter* counter(const std::string& name, Labels labels = {});
  Gauge* gauge(const std::string& name, Labels labels = {});
  /// Distribution over integer samples (picoseconds for latencies; other
  /// integer units -- ppm, bytes -- share the same bins).
  sim::LatencyHistogram* histogram(const std::string& name, Labels labels = {});

  MetricsSnapshot snapshot(Picos at = 0) const;
  /// Zero every instrument (used to discard warm-up).
  void reset();
  std::size_t series_count() const;

 private:
  struct Entry {
    std::string name;
    Labels labels;
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<sim::LatencyHistogram> histogram;
  };

  Entry& entry(const std::string& name, Labels&& labels, MetricKind kind);

  // Guards the map structure (registration vs snapshot), not the instrument
  // values -- those are atomics.  Registration is rare (construction time),
  // so the lock never contends on the hot path.
  mutable std::mutex mu_;
  // Keyed by name + canonical label serialization; std::map keeps exports
  // deterministically ordered.
  std::map<std::string, Entry> entries_;
};

}  // namespace dhl::telemetry
