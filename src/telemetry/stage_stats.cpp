#include "dhl/telemetry/stage_stats.hpp"

#include <sstream>

namespace dhl::telemetry {

namespace {

/// {"count":N,"min":..,"max":..,"mean":..,"p50":..,"p99":..,"p999":..} in
/// picoseconds.
void write_hist_json(std::ostream& os, const sim::LatencyHistogram& h) {
  os << "{\"count\": " << h.count() << ", \"min\": " << h.min()
     << ", \"max\": " << h.max() << ", \"mean\": " << h.mean()
     << ", \"p50\": " << h.percentile(0.5)
     << ", \"p99\": " << h.percentile(0.99)
     << ", \"p999\": " << h.percentile(0.999) << "}";
}

}  // namespace

const char* to_string(Stage stage) {
  switch (stage) {
    case Stage::kIbqWait: return "ibq_wait";
    case Stage::kPack: return "pack";
    case Stage::kDmaTx: return "dma_tx";
    case Stage::kFpga: return "fpga";
    case Stage::kDmaRx: return "dma_rx";
    case Stage::kDistributor: return "distributor";
    case Stage::kFallback: return "fallback";
    case Stage::kRetryBackoff: return "retry_backoff";
    case Stage::kEndToEnd: return "end_to_end";
    case Stage::kCount: break;
  }
  return "?";
}

void StageLatencyRecorder::record_e2e(std::uint8_t nf, Picos dt) {
  if (!enabled_) return;
  auto& h = e2e_[nf];
  if (h == nullptr) h = std::make_unique<sim::LatencyHistogram>();
  h->record(static_cast<std::uint64_t>(dt));
}

const sim::LatencyHistogram& StageLatencyRecorder::stage(Stage stage) const {
  if (stage == Stage::kEndToEnd) {
    // The aggregate is a bin-wise merge of the per-NF shards, materialized
    // per read so each delivery pays for exactly one histogram record.
    // Readers are periodic (sampler tick, stream snapshot, bench teardown),
    // so the 256-shard sweep is off the per-packet path by construction.
    e2e_agg_.reset();
    for (const auto& h : e2e_) {
      if (h != nullptr) e2e_agg_.merge(*h);
    }
    return e2e_agg_;
  }
  return hist_[static_cast<std::size_t>(stage)];
}

const sim::LatencyHistogram& StageLatencyRecorder::e2e_tenant(
    const std::string& tenant) const {
  tenant_agg_.reset();
  for (std::size_t nf = 0; nf < kMaxNfs; ++nf) {
    if (e2e_[nf] != nullptr && tenants_[nf] == tenant) {
      tenant_agg_.merge(*e2e_[nf]);
    }
  }
  return tenant_agg_;
}

std::string StageLatencyRecorder::nf_name(std::uint8_t nf) const {
  if (!names_[nf].empty()) return names_[nf];
  return "nf" + std::to_string(static_cast<int>(nf));
}

std::size_t StageLatencyRecorder::nf_id_by_name(const std::string& name) const {
  for (std::size_t i = 0; i < kMaxNfs; ++i) {
    if (names_[i] == name && !name.empty()) return i;
  }
  return kMaxNfs;
}

void StageLatencyRecorder::reset() {
  for (auto& h : hist_) h.reset();
  for (auto& h : e2e_) h.reset();
}

void StageLatencyRecorder::write_json(std::ostream& os) const {
  os << "{\"stages\": {";
  bool first = true;
  for (std::size_t i = 0; i < static_cast<std::size_t>(Stage::kCount); ++i) {
    if (!first) os << ", ";
    first = false;
    os << '"' << to_string(static_cast<Stage>(i)) << "\": ";
    write_hist_json(os, stage(static_cast<Stage>(i)));
  }
  os << "}, \"e2e_by_nf\": {";
  first = true;
  for (std::size_t nf = 0; nf < kMaxNfs; ++nf) {
    if (e2e_[nf] == nullptr) continue;
    if (!first) os << ", ";
    first = false;
    os << '"' << nf_name(static_cast<std::uint8_t>(nf)) << "\": ";
    write_hist_json(os, *e2e_[nf]);
  }
  os << "}}";
}

std::string StageLatencyRecorder::to_json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

}  // namespace dhl::telemetry
