#include "dhl/fpga/device.hpp"

#include <algorithm>
#include <stdexcept>

#include "dhl/common/check.hpp"
#include "dhl/common/log.hpp"

namespace dhl::fpga {

FpgaDevice::FpgaDevice(sim::Simulator& simulator, FpgaDeviceConfig config)
    : sim_{simulator},
      config_{std::move(config)},
      telemetry_{telemetry::ensure(config_.telemetry)},
      dma_{simulator, config_.dma, config_.driver},
      regions_(config_.num_pr_regions),
      acc_map_(256, -1) {
  DHL_CHECK(config_.num_pr_regions > 0);
  DHL_CHECK(config_.static_region.luts <= config_.total_luts);
  DHL_CHECK(config_.static_region.brams <= config_.total_brams);
  dma_.set_tx_deliver([this](DmaBatchPtr b) { dispatch_batch(std::move(b)); });

  const telemetry::Labels fpga_label{{"fpga", config_.name}};
  telemetry::MetricsRegistry& reg = telemetry_->metrics;
  pr_loads_ = reg.counter("dhl.fpga.pr_loads", fpga_label);
  pr_load_time_ = reg.histogram("dhl.fpga.pr_load_time", fpga_label);
  dispatch_records_ = reg.counter("dhl.fpga.dispatch_records", fpga_label);
  dispatch_error_records_ =
      reg.counter("dhl.fpga.dispatch_error_records", fpga_label);
  dispatch_track_ = "fpga." + config_.name + ".dispatch";
  dma_.set_telemetry(reg.histogram("dhl.dma.tx_latency", fpga_label),
                     reg.histogram("dhl.dma.rx_latency", fpga_label),
                     &telemetry_->trace, "fpga." + config_.name + ".dma");
}

void FpgaDevice::set_fault_hook(FaultHook* hook) {
  fault_hook_ = hook;
  dma_.set_fault_hook(hook, config_.fpga_id);
}

std::optional<int> FpgaDevice::load_module(const PartialBitstream& bitstream,
                                           std::function<void(int)> on_ready,
                                           std::function<void(int)> on_failed) {
  // The module must fit one reconfigurable part...
  if (bitstream.resources.luts > config_.region_capacity.luts ||
      bitstream.resources.brams > config_.region_capacity.brams) {
    DHL_WARN("fpga", bitstream.hf_name << " exceeds the per-part budget");
    return std::nullopt;
  }
  // ...and the device must have resources left overall.
  const ModuleResources used = used_resources();
  if (used.luts + bitstream.resources.luts > config_.total_luts ||
      used.brams + bitstream.resources.brams > config_.total_brams) {
    DHL_WARN("fpga", "no device resources left for " << bitstream.hf_name);
    return std::nullopt;
  }
  const auto it = std::find_if(regions_.begin(), regions_.end(),
                               [](const Region& r) {
                                 return r.state == RegionState::kEmpty;
                               });
  if (it == regions_.end()) {
    DHL_WARN("fpga", "no free reconfigurable part for " << bitstream.hf_name);
    return std::nullopt;
  }
  const int region = static_cast<int>(it - regions_.begin());

  Region& r = *it;
  r.state = RegionState::kReconfiguring;
  r.hf_name = bitstream.hf_name;
  r.resources = bitstream.resources;
  r.module = bitstream.factory();
  DHL_CHECK(r.module != nullptr);

  // Injected ICAP faults: a failed programming still occupies the port and
  // the part for the full window; a slow one stretches the window.
  bool pr_fails = false;
  Picos pr_extra = 0;
  if (fault_hook_ != nullptr) {
    if (const auto fault =
            fault_hook_->sample(FaultSite::kPrLoad, config_.fpga_id)) {
      if (fault->kind == FaultKind::kPrFail) pr_fails = true;
      if (fault->kind == FaultKind::kPrSlow) pr_extra = fault->delay;
    }
  }

  // ICAP is a single port: back-to-back programmings serialize.
  const Picos start = std::max(icap_busy_until_, sim_.now());
  const Picos done = start + reconfiguration_time(bitstream) + pr_extra;
  icap_busy_until_ = done;
  pr_loads_->add(1);
  // Request->ready, including time queued behind the single ICAP port.
  pr_load_time_->record(done - sim_.now());
  if (telemetry_->trace.enabled()) {
    telemetry_->trace.complete_span(
        "fpga." + config_.name + ".icap", "pr.load", "pr", sim_.now(), done,
        {{"hf", bitstream.hf_name}, {"region", std::to_string(region)}});
  }
  if (pr_fails) {
    sim_.schedule_at(done, [this, region, cb = std::move(on_failed)] {
      ++pr_failures_;
      DHL_WARN("fpga", config_.name << " region " << region
                                    << " PR programming failed: "
                                    << regions_[static_cast<std::size_t>(region)].hf_name);
      // The part holds no usable configuration; free it for the next PR.
      regions_[static_cast<std::size_t>(region)] = Region{};
      if (cb) cb(region);
    });
    return region;
  }
  sim_.schedule_at(done, [this, region, cb = std::move(on_ready)] {
    regions_[static_cast<std::size_t>(region)].state = RegionState::kReady;
    DHL_INFO("fpga", config_.name << " region " << region << " ready: "
                                  << regions_[static_cast<std::size_t>(region)].hf_name);
    if (cb) cb(region);
  });
  return region;
}

void FpgaDevice::unload_region(int region) {
  auto& r = regions_.at(static_cast<std::size_t>(region));
  DHL_CHECK_MSG(r.state != RegionState::kReconfiguring,
                "cannot unload a part mid-reconfiguration");
  r = Region{};
  for (auto& m : acc_map_) {
    if (m == region) m = -1;
  }
}

RegionState FpgaDevice::region_state(int region) const {
  return regions_.at(static_cast<std::size_t>(region)).state;
}

AcceleratorModule* FpgaDevice::region_module(int region) {
  return regions_.at(static_cast<std::size_t>(region)).module.get();
}

const AcceleratorModule* FpgaDevice::region_module(int region) const {
  return regions_.at(static_cast<std::size_t>(region)).module.get();
}

std::optional<int> FpgaDevice::region_of(const std::string& hf_name) const {
  for (std::size_t i = 0; i < regions_.size(); ++i) {
    if (regions_[i].state != RegionState::kEmpty && regions_[i].hf_name == hf_name) {
      return static_cast<int>(i);
    }
  }
  return std::nullopt;
}

ModuleResources FpgaDevice::used_resources() const {
  ModuleResources used = config_.static_region;
  for (const Region& r : regions_) {
    if (r.state != RegionState::kEmpty) {
      used.luts += r.resources.luts;
      used.brams += r.resources.brams;
    }
  }
  return used;
}

double FpgaDevice::lut_utilization() const {
  return static_cast<double>(used_resources().luts) / config_.total_luts;
}

double FpgaDevice::bram_utilization() const {
  return static_cast<double>(used_resources().brams) / config_.total_brams;
}

void FpgaDevice::map_acc(netio::AccId acc_id, int region) {
  DHL_CHECK(region >= 0 &&
            region < static_cast<int>(config_.num_pr_regions));
  acc_map_[acc_id] = region;
}

void FpgaDevice::unmap_acc(netio::AccId acc_id) { acc_map_[acc_id] = -1; }

std::uint64_t FpgaDevice::region_records(int region) const {
  return regions_.at(static_cast<std::size_t>(region)).records;
}

std::uint64_t FpgaDevice::region_bytes(int region) const {
  return regions_.at(static_cast<std::size_t>(region)).bytes;
}

Picos FpgaDevice::region_busy_time(int region) const {
  return regions_.at(static_cast<std::size_t>(region)).busy_accum;
}

void FpgaDevice::dispatch_batch(DmaBatchPtr batch) {
  const Picos arrival = sim_.now();
  // Integrity gate: a transfer that arrived truncated or bit-flipped (the
  // checksum stamped at the TX submit no longer matches) is never parsed or
  // dispatched -- it bounces back unprocessed with wire_corrupt set, which
  // survives the RX DMA's restamp so the Distributor drops it as a unit.
  bool intact = !batch->wire_corrupt && batch->verify_crc();
  std::vector<RecordView> views;
  if (intact) {
    try {
      views = batch->parse();
    } catch (const std::runtime_error&) {
      // Structurally invalid records behind a stale (or absent) checksum:
      // same bounce path.
      intact = false;
    }
  }
  if (!intact) {
    batch->wire_corrupt = true;
    DHL_WARN("fpga", config_.name << " bouncing corrupt batch "
                                  << batch->batch_id);
    dma_.submit_rx(std::move(batch));
    return;
  }
  // Dispatcher fabric cost for routing + re-packing this batch.
  const Picos dispatch_cost = config_.timing.fabric_clock.cycles(
      config_.dispatcher_cycles_per_record *
      static_cast<double>(views.size()));

  Picos batch_done = arrival + dispatch_cost;
  for (std::size_t first = 0, end = 0; first < views.size(); first = end) {
    // One run: the maximal stretch of records sharing a header acc_id (a
    // Packer-built batch is a single run; the device trusts only the bytes).
    const netio::AccId acc_id = views[first].header.acc_id;
    end = first + 1;
    while (end < views.size() && views[end].header.acc_id == acc_id) ++end;

    const int region_idx = acc_map_[acc_id];
    if (region_idx < 0 ||
        regions_[static_cast<std::size_t>(region_idx)].state !=
            RegionState::kReady) {
      // No ready module: the records return unprocessed with an error flag,
      // mirroring how the real dispatcher cannot drop data silently.
      for (std::size_t i = first; i < end; ++i) {
        views[i].header.flags |= kRecordFlagError;
        batch->store_header(views[i]);
      }
      dispatch_drops_ += end - first;
      dispatch_error_records_->add(end - first);
      continue;
    }
    Region& region = regions_[static_cast<std::size_t>(region_idx)];

    // --- functional processing (bit-exact transform) ---
    // The whole run is computed before any resize_record below, so no
    // gathered span is read after the buffer shifts under it.
    run_datas_.clear();
    for (std::size_t i = first; i < end; ++i) {
      run_datas_.push_back(batch->record_data(views[i]));
    }
    run_results_.resize(end - first);
    region.module->process_batch(run_datas_, run_results_);

    // --- timing: per-stage pipeline occupancy + delay ---
    // The record flows through the module's internal stages in order; each
    // stage is store-and-forward, so stage s admits the record once its own
    // previous occupancy drains AND the record has left stage s-1.  For a
    // single-stage module this reduces to one busy-until window.
    // Stage 0 is charged the record's entry length; later stages the exit
    // length (the only two the device observes -- a shrinking front stage
    // like lz77 therefore un-burdens everything behind it, which is the
    // whole point of fusing CompNcrypt-style chains).
    const std::vector<ModuleTiming> stages = region.module->stage_timings();
    DHL_CHECK(!stages.empty());
    if (region.stage_busy.size() < stages.size()) {
      region.stage_busy.resize(stages.size(), 0);
    }
    for (std::size_t i = first; i < end; ++i) {
      RecordView& v = views[i];
      const ProcessResult& res = run_results_[i - first];
      const std::uint32_t entry_len = v.header.data_len;
      DHL_CHECK_MSG(res.new_len <= v.header.data_len,
                    "module grew a record in place");
      v.header.result = res.result;
      if (res.data_unmodified && res.new_len == v.header.data_len) {
        // Result-only module: tell the Distributor the payload bytes are
        // exactly what the host sent, so it can skip the write-back copy.
        v.header.flags |= kRecordFlagDataUnmodified;
      }
      if (res.new_len != v.header.data_len) {
        batch->resize_record(v, res.new_len, views, i);
      } else {
        batch->store_header(v);
      }

      Picos record_t = arrival + dispatch_cost;
      Picos bottleneck = 0;
      for (std::size_t s = 0; s < stages.size(); ++s) {
        const std::uint32_t len =
            (s == 0 && stages.size() > 1) ? entry_len : v.header.data_len;
        const Picos occupancy = stages[s].max_throughput.transfer_time(len);
        const Picos start = std::max(region.stage_busy[s], record_t);
        region.stage_busy[s] = start + occupancy;
        record_t = start + occupancy +
                   config_.timing.fabric_clock.cycles(stages[s].delay_cycles);
        bottleneck = std::max(bottleneck, occupancy);
      }
      region.busy_accum += bottleneck;
      region.records += 1;
      region.bytes += v.header.data_len;
      batch_done = std::max(batch_done, record_t);
    }
  }

  dispatch_records_->add(views.size());
  if (telemetry_->trace.enabled()) {
    telemetry_->trace.complete_span(
        dispatch_track_, "fpga.process", "fpga", arrival, batch_done,
        {{"batch", std::to_string(batch->batch_id)},
         {"records", std::to_string(views.size())}});
  }

  // Return the re-packed batch once every record has drained.
  auto shared = std::make_shared<DmaBatchPtr>(std::move(batch));
  sim_.schedule_at(batch_done,
                   [this, shared] { dma_.submit_rx(std::move(*shared)); });
}

}  // namespace dhl::fpga
