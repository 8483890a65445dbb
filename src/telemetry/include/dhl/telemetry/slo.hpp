#pragma once

// SloWatchdog: declarative per-NF latency/drop budgets evaluated every
// sampler period (DESIGN.md section 7).
//
// Each SloSpec names an NF (or "*" for the pipeline aggregate) and gives
// ceilings for windowed p99 / p999 end-to-end latency plus a drop-rate
// budget.  The watchdog turns the cumulative stage histograms into
// per-window views with sim::LatencyHistogram::diff_since and compares
// with *strict* inequalities -- a window landing exactly on its budget
// passes.  An empty window (no deliveries, no drops) leaves the SLO state
// unchanged.
//
// Hysteresis keeps verdicts from flapping: a spec enters `breached` only
// after `enter_after` consecutive violating windows and leaves it only
// after `exit_after` consecutive clean ones.  Breach entry logs to the
// flight recorder and triggers an auto dump, so the artifact shows what the
// pipeline was doing when the tail went bad.

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "dhl/common/units.hpp"
#include "dhl/telemetry/metrics.hpp"
#include "dhl/telemetry/stage_stats.hpp"

namespace dhl::telemetry {

class FlightRecorder;

/// One declarative budget.  Zero / negative fields are unchecked.
struct SloSpec {
  std::string nf = "*";           ///< NF name, or "*" for all-NF aggregate
  /// When non-empty, the spec covers the *tenant* instead of one NF: the
  /// e2e window merges every NF bound to the tenant and the drop budget
  /// counts dhl.tenant.dropped_pkts.  `nf` is ignored (conventionally "*").
  std::string tenant;
  Picos p99_ceiling = 0;          ///< windowed e2e p99 must be <= this
  Picos p999_ceiling = 0;         ///< windowed e2e p999 must be <= this
  double drop_rate_budget = -1.0; ///< drops / (delivered + drops) per window
};

/// Machine-readable state of one SLO after the latest evaluation.
struct SloVerdict {
  SloSpec spec;
  bool breached = false;           ///< hysteresis-filtered breach state
  bool window_violation = false;   ///< raw violation in the latest window
  std::string detail;              ///< which budget the latest window broke
  std::uint64_t violating_windows = 0;
  std::uint64_t breach_episodes = 0;  ///< distinct entries into `breached`
  // Latest non-empty window measurements.
  std::uint64_t window_count = 0;
  Picos window_p99 = 0;
  Picos window_p999 = 0;
  double window_drop_rate = 0.0;
};

class SloWatchdog {
 public:
  /// `recorder` (optional) receives breach/recover events and auto dumps.
  explicit SloWatchdog(const StageLatencyRecorder& stages,
                       FlightRecorder* recorder = nullptr)
      : stages_(stages), recorder_(recorder) {}
  SloWatchdog(const SloWatchdog&) = delete;
  SloWatchdog& operator=(const SloWatchdog&) = delete;

  void add_slo(SloSpec spec);

  /// Consecutive violating / clean windows required to enter / leave
  /// `breached` (both clamped to >= 1; defaults 2 / 2).
  void set_hysteresis(std::uint32_t enter_after, std::uint32_t exit_after);

  /// Evaluate every SLO against the window since the previous call.
  /// `snap` supplies the drop counters matching `now`.
  void evaluate(Picos now, const MetricsSnapshot& snap);

  const std::vector<SloVerdict>& verdicts() const { return verdicts_; }
  bool any_breached() const;
  std::uint64_t evaluations() const { return evaluations_; }

  /// [{"nf": ..., "breached": ..., ...}, ...] -- embedded in bench sidecars
  /// and the stream snapshots.
  void write_verdicts_json(std::ostream& os) const;
  std::string verdicts_json() const;

  /// NIC RX drops, every DropSite counter (kDropSites), the per-tenant drop
  /// totals and the drop-adjacent admission rejections, each summed over
  /// labels, as one flat JSON object -- the per-scenario drop-site
  /// breakdown in BENCH_scenarios.json.
  /// Zero-valued families are included so consumers always see the full
  /// site list.
  static void write_drop_sites_json(std::ostream& os,
                                    const MetricsSnapshot& snap);

 private:
  struct State {
    sim::LatencyHistogram baseline;  // cumulative e2e hist at last evaluation
    bool have_baseline = false;
    double prev_drops = 0.0;
    std::uint32_t violation_streak = 0;
    std::uint32_t clean_streak = 0;
  };

  /// Cumulative e2e histogram for a spec; null when the NF has not
  /// delivered anything yet (name resolution is lazy: NFs register with the
  /// stage recorder at runtime construction, SLOs may be declared earlier).
  const sim::LatencyHistogram* cumulative_hist(const SloSpec& spec) const;
  double cumulative_drops(const SloSpec& spec,
                          const MetricsSnapshot& snap) const;

  const StageLatencyRecorder& stages_;
  FlightRecorder* recorder_;
  std::uint32_t enter_after_ = 2;
  std::uint32_t exit_after_ = 2;
  std::vector<SloVerdict> verdicts_;
  std::vector<State> states_;
  std::uint64_t evaluations_ = 0;
};

}  // namespace dhl::telemetry
