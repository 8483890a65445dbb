#pragma once

// FaultInjector + FallbackRouter: the runtime's failure model
// (DESIGN.md section 3.3).
//
// The paper's pitch is that the *runtime* -- not each NF -- owns the messy
// FPGA realities: PR swaps over a single ICAP port, a poll-mode DMA engine,
// shared queues.  This header is where those realities are allowed to go
// wrong on purpose:
//
//   FaultInjector  -- a deterministic, seeded fault oracle implementing the
//                     fpga::FaultHook seam.  Rules say *where* (FaultSite),
//                     *what* (FaultKind), *when* (virtual-time window),
//                     *how often* (probability, max_count) and *which board*
//                     (fpga_id).  Sampling happens in event order on the
//                     virtual clock, so a fixed seed reproduces the exact
//                     same fault schedule bit-for-bit.
//
//   FallbackRouter -- the bottom rung of the degradation ladder: when every
//                     replica of a hardware function is quarantined, packets
//                     flow through a per-(nf, hf) software callback
//                     registered via DHL_register_fallback, so the NF keeps
//                     forwarding (degraded, counted via dhl.fallback.pkts)
//                     instead of dropping -- the paper's "NFs remain
//                     flexible software" property under failure.

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dhl/common/rng.hpp"
#include "dhl/fpga/fault_hook.hpp"
#include "dhl/runtime/ledger.hpp"
#include "dhl/runtime/runtime_metrics.hpp"
#include "dhl/runtime/types.hpp"
#include "dhl/sim/simulator.hpp"

namespace dhl::runtime {

/// One scheduled fault: fire `kind` at `site` with `probability` per
/// sampling opportunity, inside [active_from, active_until) on the virtual
/// clock, on `fpga_id` (-1 = any board), at most `max_count` times.
struct FaultRule {
  fpga::FaultSite site = fpga::FaultSite::kDmaSubmit;
  fpga::FaultKind kind = fpga::FaultKind::kSubmitTimeout;
  double probability = 1.0;
  Picos active_from = 0;
  Picos active_until = ~Picos{0};
  int fpga_id = -1;
  std::uint64_t max_count = ~std::uint64_t{0};
  /// Extra virtual-time delay the fault adds (kPrSlow).
  Picos delay = 0;
};

/// Inverse of fpga::to_string(FaultSite/FaultKind): parse the canonical
/// names ("dma.submit", "pr_fail", ...) back into the enums.  nullopt on
/// unknown input.  The scenario harness builds fault-soak overlays from
/// declarative INI specs through these.
std::optional<fpga::FaultSite> fault_site_from_string(std::string_view name);
std::optional<fpga::FaultKind> fault_kind_from_string(std::string_view name);

class FaultInjector final : public fpga::FaultHook {
 public:
  /// `seed` fixes the whole fault schedule; same seed + same workload =
  /// same faults, which is what makes the stress tests bit-reproducible.
  FaultInjector(sim::Simulator& simulator, telemetry::Telemetry& telemetry,
                std::uint64_t seed);

  /// Rules are evaluated in insertion order; the first match that rolls
  /// under its probability fires (one fault per sampling opportunity).
  void add_rule(FaultRule rule);
  void clear_rules();

  // fpga::FaultHook
  std::optional<fpga::FaultOutcome> sample(fpga::FaultSite site,
                                           int fpga_id) override;
  std::uint64_t rand() override { return rng_(); }

  /// Faults fired so far, total and per site (mirrors the
  /// dhl.fault.injected counters; convenient for test assertions).
  std::uint64_t injected_total() const { return injected_total_; }
  std::uint64_t injected(fpga::FaultSite site) const;

 private:
  sim::Simulator& sim_;
  telemetry::Telemetry& telemetry_;
  Xoshiro256 rng_;
  std::vector<FaultRule> rules_;
  std::vector<std::uint64_t> fired_;  // parallel to rules_
  std::uint64_t injected_total_ = 0;
  std::uint64_t injected_by_site_[4] = {0, 0, 0, 0};
  /// dhl.fault.injected{site, kind}, created lazily per (site, kind).
  std::map<std::pair<int, int>, telemetry::Counter*> counters_;
};

/// Software-fallback implementation of one hardware function for one NF.
/// Receives the tagged packet; must leave payload + accel_result exactly
/// as the accelerator path would have (the parity tests enforce this).
using FallbackFn = std::function<void(netio::Mbuf&)>;

/// Batch form: receives every packet of one (nf, hf) run at once -- the
/// shape the Packer's failed DMA batch already has -- so vectorized
/// fallbacks (multi-lane Aho-Corasick, pipelined AES-CTR) see whole
/// batches instead of one packet per call.  Same contract per packet as
/// FallbackFn: leave payload + accel_result exactly as the accelerator
/// path would have.
using FallbackBatchFn = std::function<void(std::span<netio::Mbuf* const>)>;

class FallbackRouter {
 public:
  FallbackRouter(sim::Simulator& simulator, std::vector<NfInfo>& nfs,
                 RuntimeMetrics& metrics);

  FallbackRouter(const FallbackRouter&) = delete;
  FallbackRouter& operator=(const FallbackRouter&) = delete;

  /// DHL_register_fallback(): software path for (nf, hf_name), stored as
  /// a batch callback that loops over `fn`.  Like
  /// register_fallback_batch, it replaces any earlier registration for
  /// the same (nf, hf_name).
  void register_fallback(netio::NfId nf_id, const std::string& hf_name,
                         FallbackFn fn);

  /// DHL_register_fallback_batch(): batched software path for
  /// (nf, hf_name).
  void register_fallback_batch(netio::NfId nf_id, const std::string& hf_name,
                               FallbackBatchFn fn);

  bool has(netio::NfId nf_id, const std::string& hf_name) const;

  /// Serve one packet as a one-element batch (see process_batch).
  bool process(netio::NfId nf_id, const std::string& hf_name, netio::Mbuf* m) {
    return process_batch(nf_id, hf_name, {&m, 1});
  }

  /// Serve a whole same-NF run of packets: one callback call, then the
  /// usual per-packet OBQ delivery (with the OBQ-full drop accounting).
  /// False when nothing is registered -- the packets stay with the caller.
  bool process_batch(netio::NfId nf_id, const std::string& hf_name,
                     std::span<netio::Mbuf* const> pkts);

 private:
  /// Post-callback bookkeeping for one served packet: fallback counter,
  /// ledger stage, then RuntimeMetrics::deliver (kFallback stage).
  void deliver(netio::NfId nf_id, netio::Mbuf* m);

  sim::Simulator& sim_;
  std::vector<NfInfo>& nfs_;
  RuntimeMetrics& metrics_;
  std::map<std::pair<netio::NfId, std::string>, FallbackBatchFn> fns_;
};

}  // namespace dhl::runtime
