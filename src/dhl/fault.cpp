#include "dhl/runtime/fault.hpp"

#include "dhl/common/check.hpp"
#include "dhl/common/log.hpp"

namespace dhl::runtime {

FaultInjector::FaultInjector(sim::Simulator& simulator,
                             telemetry::Telemetry& telemetry,
                             std::uint64_t seed)
    : sim_{simulator}, telemetry_{telemetry}, rng_{seed} {}

void FaultInjector::add_rule(FaultRule rule) {
  DHL_CHECK_MSG(rule.probability >= 0.0 && rule.probability <= 1.0,
                "FaultRule probability must be in [0, 1]");
  rules_.push_back(rule);
  fired_.push_back(0);
}

void FaultInjector::clear_rules() {
  rules_.clear();
  fired_.clear();
}

std::optional<fpga::FaultOutcome> FaultInjector::sample(fpga::FaultSite site,
                                                        int fpga_id) {
  const Picos now = sim_.now();
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const FaultRule& rule = rules_[i];
    if (rule.site != site) continue;
    if (rule.fpga_id >= 0 && rule.fpga_id != fpga_id) continue;
    if (now < rule.active_from || now >= rule.active_until) continue;
    if (fired_[i] >= rule.max_count) continue;
    // The roll consumes RNG state even on a miss, so the schedule depends
    // only on the sequence of sampling opportunities -- deterministic for a
    // fixed seed and workload.
    if (rule.probability < 1.0 && rng_.uniform() >= rule.probability) {
      continue;
    }
    ++fired_[i];
    ++injected_total_;
    ++injected_by_site_[static_cast<std::size_t>(site)];

    const auto key = std::make_pair(static_cast<int>(site),
                                    static_cast<int>(rule.kind));
    auto it = counters_.find(key);
    if (it == counters_.end()) {
      it = counters_
               .emplace(key, telemetry_.metrics.counter(
                                 "dhl.fault.injected",
                                 {{"site", fpga::to_string(site)},
                                  {"kind", fpga::to_string(rule.kind)}}))
               .first;
    }
    it->second->add(1);
    if (telemetry_.trace.enabled()) {
      telemetry_.trace.instant("fault", "fault.injected", "fault", now,
                               {{"site", fpga::to_string(site)},
                                {"kind", fpga::to_string(rule.kind)},
                                {"fpga", std::to_string(fpga_id)}});
    }
    DHL_INFO("fault", fpga::to_string(rule.kind) << " at "
                                                 << fpga::to_string(site)
                                                 << " on fpga " << fpga_id);
    // Flight-recorder entry feeds the fault-storm trip wire too (tag keeps
    // "site/kind" so dumps are readable without decoding the enums).
    telemetry_.recorder.log(
        telemetry::FlightComponent::kFault, now,
        telemetry::FlightEventKind::kFaultInjected,
        std::string(fpga::to_string(site)) + "/" +
            fpga::to_string(rule.kind),
        static_cast<std::int16_t>(fpga_id),
        static_cast<std::int32_t>(rule.kind), injected_total_);
    return fpga::FaultOutcome{rule.kind, rule.delay};
  }
  return std::nullopt;
}

std::uint64_t FaultInjector::injected(fpga::FaultSite site) const {
  return injected_by_site_[static_cast<std::size_t>(site)];
}

FallbackRouter::FallbackRouter(sim::Simulator& simulator,
                               std::vector<NfInfo>& nfs,
                               RuntimeMetrics& metrics)
    : sim_{simulator}, nfs_{nfs}, metrics_{metrics} {}

void FallbackRouter::register_fallback(netio::NfId nf_id,
                                       const std::string& hf_name,
                                       FallbackFn fn) {
  DHL_CHECK_MSG(fn != nullptr, "register_fallback: null callback");
  fns_[{nf_id, hf_name}] = [fn = std::move(fn)](
                               std::span<netio::Mbuf* const> pkts) {
    for (netio::Mbuf* m : pkts) fn(*m);
  };
}

void FallbackRouter::register_fallback_batch(netio::NfId nf_id,
                                             const std::string& hf_name,
                                             FallbackBatchFn fn) {
  DHL_CHECK_MSG(fn != nullptr, "register_fallback_batch: null callback");
  fns_[{nf_id, hf_name}] = std::move(fn);
}

bool FallbackRouter::has(netio::NfId nf_id, const std::string& hf_name) const {
  return fns_.count({nf_id, hf_name}) != 0;
}

bool FallbackRouter::process_batch(netio::NfId nf_id,
                                   const std::string& hf_name,
                                   std::span<netio::Mbuf* const> pkts) {
  if (pkts.empty()) return true;
  const auto it = fns_.find({nf_id, hf_name});
  if (it == fns_.end()) return false;
  it->second(pkts);
  for (netio::Mbuf* m : pkts) deliver(nf_id, m);
  return true;
}

void FallbackRouter::deliver(netio::NfId nf_id, netio::Mbuf* m) {
  metrics_.fallback_pkts->add(1);
  metrics_.ledger.on_stage(m, LedgerStage::kFallback);
  if (nf_id >= nfs_.size()) {
    metrics_.drop(m, DropSite::kObq);
    return;
  }
  // The fallback side path is the packet's whole post-ingress life.
  metrics_.deliver(nfs_[nf_id], nf_id, m, sim_.now(),
                   telemetry::Stage::kFallback);
}

std::optional<fpga::FaultSite> fault_site_from_string(std::string_view name) {
  using fpga::FaultSite;
  for (const FaultSite site :
       {FaultSite::kDmaSubmit, FaultSite::kDmaCompletion, FaultSite::kPrLoad,
        FaultSite::kDevice}) {
    if (name == fpga::to_string(site)) return site;
  }
  return std::nullopt;
}

std::optional<fpga::FaultKind> fault_kind_from_string(std::string_view name) {
  using fpga::FaultKind;
  for (const FaultKind kind :
       {FaultKind::kSubmitTimeout, FaultKind::kPartialTransfer,
        FaultKind::kCorruptHeader, FaultKind::kFlipUnmodifiedFlag,
        FaultKind::kTruncateTail, FaultKind::kPrFail, FaultKind::kPrSlow,
        FaultKind::kDeviceUnhealthy}) {
    if (name == fpga::to_string(kind)) return kind;
  }
  return std::nullopt;
}

}  // namespace dhl::runtime
