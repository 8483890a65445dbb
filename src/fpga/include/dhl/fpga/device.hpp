#pragma once

// FPGA device model: static region, reconfigurable parts, ICAP, Dispatcher.
//
// Models a Xilinx Virtex-7 VC709 board (XC7VX690T: 433,200 LUTs and 1,470
// 36Kb BRAM blocks -- Table VI footnote) behind a PCIe DMA engine.
//
// Paper IV-C: the static region holds the DMA engine, Dispatcher, Config and
// PR modules; the remaining fabric is divided into reconfigurable parts that
// each accept any accelerator module following the design specification.
// Loading a module programs its PR bitstream through ICAP without touching
// the other running parts (verified by a test and the Table V bench).
//
// The Dispatcher (paper IV-B2) receives DMA batches, hands each run of
// same-acc_id records to the accelerator module mapped to that acc_id in
// one AcceleratorModule::process_batch() call, and re-packs the
// post-processed batch for the return DMA.

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dhl/common/units.hpp"
#include "dhl/fpga/accelerator.hpp"
#include "dhl/fpga/batch.hpp"
#include "dhl/fpga/bitstream.hpp"
#include "dhl/fpga/dma.hpp"
#include "dhl/sim/simulator.hpp"
#include "dhl/sim/timing_params.hpp"
#include "dhl/telemetry/telemetry.hpp"

namespace dhl::fpga {

struct FpgaDeviceConfig {
  std::string name = "fpga0";
  int fpga_id = 0;
  int socket = 0;

  /// Device totals (XC7VX690T).
  std::uint32_t total_luts = 433'200;
  std::uint32_t total_brams = 1'470;
  /// Static region: DMA engine, Dispatcher, Config, PR plumbing (Table VI).
  ModuleResources static_region{136'183, 83};

  /// Reconfigurable parts and the per-part resource budget.  A module must
  /// fit a single part; the device total gates how many parts can be
  /// occupied at once.
  std::uint32_t num_pr_regions = 7;
  ModuleResources region_capacity{42'000, 560};

  sim::FpgaParams timing;
  sim::DmaParams dma;
  DmaDriver driver = DmaDriver::kUioPoll;

  /// Dispatcher fabric cost per record (route + re-pack).
  double dispatcher_cycles_per_record = 4;

  /// Shared telemetry context; when null the device creates a private one.
  telemetry::TelemetryPtr telemetry;
};

enum class RegionState : std::uint8_t { kEmpty, kReconfiguring, kReady };

class FpgaDevice {
 public:
  FpgaDevice(sim::Simulator& simulator, FpgaDeviceConfig config);

  FpgaDevice(const FpgaDevice&) = delete;
  FpgaDevice& operator=(const FpgaDevice&) = delete;

  const std::string& name() const { return config_.name; }
  int fpga_id() const { return config_.fpga_id; }
  int socket() const { return config_.socket; }
  DmaEngine& dma() { return dma_; }
  const FpgaDeviceConfig& config() const { return config_; }
  telemetry::Telemetry& telemetry() { return *telemetry_; }
  const telemetry::TelemetryPtr& telemetry_ptr() const { return telemetry_; }

  // --- partial reconfiguration ----------------------------------------------

  /// Begin programming `bitstream` into a free reconfigurable part.  Returns
  /// the region index, or nullopt when no part is free or resources do not
  /// fit.  `on_ready(region)` fires in virtual time when ICAP completes.
  /// Programming one part never perturbs traffic through the others.
  /// An injected pr.load failure (fault hook) reverts the part to empty
  /// when the programming window elapses and fires `on_failed(region)`
  /// instead -- on_ready only ever reports a usable part.
  std::optional<int> load_module(const PartialBitstream& bitstream,
                                 std::function<void(int)> on_ready,
                                 std::function<void(int)> on_failed = nullptr);

  /// Fault-injection seam: wires this device and its DMA engine to the
  /// hook (null restores the perfect device).
  void set_fault_hook(FaultHook* hook);

  /// Time ICAP will take for `bitstream` (size / ICAP bandwidth).
  Picos reconfiguration_time(const PartialBitstream& bitstream) const {
    return config_.timing.icap.transfer_time(bitstream.size_bytes);
  }

  /// Unload the module in `region` (frees the part; in hardware this is
  /// just marking the part reusable -- the next PR overwrites it).
  void unload_region(int region);

  RegionState region_state(int region) const;
  AcceleratorModule* region_module(int region);
  const AcceleratorModule* region_module(int region) const;

  /// Region currently holding the named hardware function, if any.
  std::optional<int> region_of(const std::string& hf_name) const;

  /// Resources consumed: static region + every occupied part.
  ModuleResources used_resources() const;
  double lut_utilization() const;
  double bram_utilization() const;

  // --- dispatcher ------------------------------------------------------------

  /// Map an acc_id to a region (done by the runtime controller at load).
  void map_acc(netio::AccId acc_id, int region);
  void unmap_acc(netio::AccId acc_id);

  /// Records dropped because their acc_id mapped to no ready region.
  std::uint64_t dispatch_drops() const { return dispatch_drops_; }

  /// PR programmings that failed (injected ICAP faults).
  std::uint64_t pr_failures() const { return pr_failures_; }

  /// Per-region accounting for the Table VI bench.
  std::uint64_t region_records(int region) const;
  std::uint64_t region_bytes(int region) const;
  /// Busy (pipeline-occupied) virtual time of the region's module.
  Picos region_busy_time(int region) const;

 private:
  struct Region {
    RegionState state = RegionState::kEmpty;
    ModulePtr module;
    std::string hf_name;
    ModuleResources resources;
    Picos busy_accum = 0;
    /// Per-pipeline-stage busy windows (lazily sized from stage_timings()).
    /// Single-stage modules use stage_busy[0]; fused chains get one window
    /// per constituent so consecutive records overlap in flight.
    std::vector<Picos> stage_busy;
    std::uint64_t records = 0;
    std::uint64_t bytes = 0;
  };

  void dispatch_batch(DmaBatchPtr batch);

  sim::Simulator& sim_;
  FpgaDeviceConfig config_;
  telemetry::TelemetryPtr telemetry_;
  DmaEngine dma_;
  std::vector<Region> regions_;
  std::vector<int> acc_map_;  // acc_id -> region (-1 = unmapped)
  Picos icap_busy_until_ = 0;
  std::uint64_t dispatch_drops_ = 0;
  std::uint64_t pr_failures_ = 0;
  FaultHook* fault_hook_ = nullptr;
  /// dispatch_batch scratch (one run's spans and results), kept across runs.
  std::vector<std::span<std::uint8_t>> run_datas_;
  std::vector<ProcessResult> run_results_;

  // Registered instruments (dhl.fpga.* with {fpga=name}).
  telemetry::Counter* pr_loads_ = nullptr;
  sim::LatencyHistogram* pr_load_time_ = nullptr;
  telemetry::Counter* dispatch_records_ = nullptr;
  telemetry::Counter* dispatch_error_records_ = nullptr;
  std::string dispatch_track_;
};

}  // namespace dhl::fpga
