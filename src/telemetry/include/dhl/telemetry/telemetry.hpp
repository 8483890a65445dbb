#pragma once

// Telemetry context: one MetricsRegistry + one TraceSession, shared by every
// component of an experiment.
//
// Ownership: configs carry a `std::shared_ptr<Telemetry>`; a component whose
// config leaves it null creates a private context so its instruments always
// exist (registry reads are how callers see runtime counters).  The Testbed
// creates a single shared context and injects it into the runtime, FPGAs and
// NIC ports, so one snapshot covers the whole experiment.

#include <memory>
#include <string>

#include "dhl/telemetry/flight_recorder.hpp"
#include "dhl/telemetry/metrics.hpp"
#include "dhl/telemetry/sampler.hpp"
#include "dhl/telemetry/stage_stats.hpp"
#include "dhl/telemetry/trace.hpp"

namespace dhl::telemetry {

class SloWatchdog;

struct Telemetry {
  MetricsRegistry metrics;
  TraceSession trace;
  /// Per-stage tail-latency decomposition (DESIGN.md section 7).
  StageLatencyRecorder stages;
  /// Always-on black box of recent runtime events.
  FlightRecorder recorder;
};

using TelemetryPtr = std::shared_ptr<Telemetry>;

inline TelemetryPtr make_telemetry() { return std::make_shared<Telemetry>(); }

/// Ensure `t` is non-null: components call this on their config's pointer so
/// instruments exist even when nobody wired a shared context.
inline TelemetryPtr ensure(TelemetryPtr t) {
  return t ? std::move(t) : make_telemetry();
}

/// Write the combined sidecar: a Chrome trace-event object (loads directly in
/// chrome://tracing and Perfetto) whose extra top-level keys carry the
/// metrics snapshot and, when a sampler ran, the sampled time series.
/// Non-null `stages` / `slo` add "stage_latency" / "slo_verdicts" keys.
void export_session(std::ostream& os, const TraceSession& trace,
                    const MetricsSnapshot& snapshot,
                    const PeriodicSampler* sampler = nullptr,
                    const StageLatencyRecorder* stages = nullptr,
                    const SloWatchdog* slo = nullptr);

/// Same, to a file.  Returns false when the file cannot be opened.
bool export_session_file(const std::string& path, const TraceSession& trace,
                         const MetricsSnapshot& snapshot,
                         const PeriodicSampler* sampler = nullptr,
                         const StageLatencyRecorder* stages = nullptr,
                         const SloWatchdog* slo = nullptr);

}  // namespace dhl::telemetry
