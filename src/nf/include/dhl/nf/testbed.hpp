#pragma once

// Experiment testbed: assembles the simulated server of paper Table III --
// NUMA sockets, mbuf pools, NIC ports, one VC709 FPGA, and the DHL Runtime --
// and provides the warm-up / measure protocol every benchmark uses.
//
// Benchmarks own the NFs; the testbed owns the substrate.

#include <memory>
#include <string>
#include <vector>

#include "dhl/accel/catalog.hpp"
#include "dhl/fpga/device.hpp"
#include "dhl/netio/mempool.hpp"
#include "dhl/netio/nic.hpp"
#include "dhl/runtime/runtime.hpp"
#include "dhl/sim/simulator.hpp"
#include "dhl/sim/timing_params.hpp"
#include "dhl/telemetry/sampler.hpp"
#include "dhl/telemetry/slo.hpp"
#include "dhl/telemetry/stream.hpp"

namespace dhl::nf {

/// Live-introspection wiring for a testbed (DESIGN.md section 7).  All off
/// by default; benches and the demo opt in via start_introspection().
struct IntrospectionConfig {
  /// Virtual-time period of the sampler tick that drives the SLO watchdog
  /// and the streaming snapshots.
  Picos sample_period = microseconds(100);
  /// Declarative per-NF budgets evaluated every tick.
  std::vector<telemetry::SloSpec> slos;
  /// Unix-socket path for the dhl-top NDJSON stream; empty = no endpoint.
  std::string stream_socket;
  /// Flight-recorder auto-dump target (audit failure, fault storm, SLO
  /// breach, SIGUSR1); empty = dumps disabled.
  std::string flight_dump_path;
  /// Fault-storm trip wire: `storm_threshold` injected faults inside
  /// `storm_window` of virtual time force a dump.  0 = disabled.
  std::uint32_t storm_threshold = 0;
  Picos storm_window = milliseconds(1);
  /// Keep the full per-tick metric series in memory (export_session wants
  /// it; long streaming runs may prefer to shed it).
  bool keep_series = true;
};

struct TestbedConfig {
  /// `runtime.timing` is the testbed's one calibration: the Testbed
  /// derives `fpga.timing` and `fpga.dma` from it.
  runtime::RuntimeConfig runtime;
  fpga::FpgaDeviceConfig fpga;
  std::uint32_t pool_size = 65536;
  std::uint32_t mbuf_room = 2048 + 128;
  /// Shared telemetry context injected into every component the testbed
  /// builds (runtime, FPGAs, NIC ports).  Created when left null, so
  /// `testbed.telemetry()` always has the whole picture.
  telemetry::TelemetryPtr telemetry;
  /// Live-introspection settings, activated by start_introspection().
  IntrospectionConfig introspection;
};

class Testbed {
 public:
  explicit Testbed(TestbedConfig config = {});

  sim::Simulator& sim() { return sim_; }
  const sim::TimingParams& timing() const { return config_.runtime.timing; }
  fpga::FpgaDevice& fpga() { return *fpgas_.front(); }
  fpga::FpgaDevice& fpga(std::size_t i) { return *fpgas_[i]; }
  std::size_t fpga_count() const { return fpgas_.size(); }

  /// Add another FPGA board (paper VI-1: "install more FPGA cards into the
  /// free PCIe slots").  Must be called before init_runtime().
  fpga::FpgaDevice& add_fpga(int socket);

  /// Add a NIC port on `socket`.  Returns a stable pointer.
  netio::NicPort* add_port(const std::string& name, Bandwidth link,
                           int socket = 0);
  netio::NicPort* port(std::size_t i) { return ports_[i].get(); }
  std::vector<netio::NicPort*> port_ptrs();
  netio::MbufPool& pool(int socket) { return *pools_[static_cast<std::size_t>(socket)]; }

  /// Create the DHL Runtime over the standard module database (built with
  /// `nids_automaton` for the pattern-matching bitstream; nullptr skips it).
  runtime::DhlRuntime& init_runtime(
      std::shared_ptr<const match::AhoCorasick> nids_automaton = nullptr);
  runtime::DhlRuntime& runtime() { return *runtime_; }
  bool has_runtime() const { return runtime_ != nullptr; }

  /// The testbed-wide telemetry context (registry + trace session) shared by
  /// every component built here.
  telemetry::Telemetry& telemetry() { return *config_.telemetry; }
  const telemetry::TelemetryPtr& telemetry_ptr() const {
    return config_.telemetry;
  }

  /// Run the simulation for `d` of virtual time.
  void run_for(Picos d) { sim_.run_until(sim_.now() + d); }

  /// Reset every port's statistics (end of warm-up).
  void reset_port_stats();

  /// Standard measurement protocol: run `warmup`, clear stats, run `window`.
  /// Afterwards read ports' tx meters / latency histograms with
  /// elapsed = `window`.
  void measure(Picos warmup, Picos window) {
    run_for(warmup);
    reset_port_stats();
    run_for(window);
  }

  /// End-of-test conservation protocol: stop the offered traffic on every
  /// port, run `settle` so the pipeline drains (retries complete, NFs
  /// consume their OBQs), and return the runtime ledger's audit.  Tests
  /// assert clean() on the result; trivially clean without a runtime or in
  /// DHL_LEDGER=0 builds.  A non-clean audit auto-dumps the flight recorder
  /// (when a dump path is configured) so the recent-event context that led
  /// to the imbalance survives the test failure.
  runtime::LedgerAudit quiesce_ledger(Picos settle = milliseconds(5));

  /// Activate the live introspection layer per config().introspection:
  /// starts a PeriodicSampler whose tick evaluates the SLO watchdog, polls
  /// the flight-recorder triggers (SIGUSR1 / fault storm), and -- when a
  /// stream socket is configured -- publishes one NDJSON snapshot per tick
  /// to connected dhl-top clients.  Idempotent.
  void start_introspection();
  /// Stop the stream server (if running) and detach the sampler hook.
  void stop_introspection();

  telemetry::SloWatchdog* slo_watchdog() { return slo_.get(); }
  telemetry::PeriodicSampler* sampler() { return sampler_.get(); }
  telemetry::TelemetryStreamServer* stream_server() { return stream_.get(); }

 private:
  TestbedConfig config_;
  sim::Simulator sim_;
  std::vector<std::unique_ptr<netio::MbufPool>> pools_;
  std::vector<std::unique_ptr<netio::NicPort>> ports_;
  std::vector<std::unique_ptr<fpga::FpgaDevice>> fpgas_;
  std::unique_ptr<runtime::DhlRuntime> runtime_;
  std::unique_ptr<telemetry::PeriodicSampler> sampler_;
  std::unique_ptr<telemetry::SloWatchdog> slo_;
  std::unique_ptr<telemetry::TelemetryStreamServer> stream_;
  std::uint16_t next_port_id_ = 0;
};

/// Forwarding throughput on the *input-traffic* basis.  NFs may grow frames
/// in flight (ESP encapsulation adds ~50 bytes), but the paper reports the
/// rate of offered traffic carried, so throughput is computed from forwarded
/// frame count x the input wire size.
inline double forwarded_wire_gbps(const netio::NicPort& port,
                                  std::uint32_t input_frame_len,
                                  Picos window) {
  return static_cast<double>(port.tx_meter().frames()) *
         static_cast<double>(wire_bytes(input_frame_len)) * 8.0 /
         to_seconds(window) / 1e9;
}

}  // namespace dhl::nf
