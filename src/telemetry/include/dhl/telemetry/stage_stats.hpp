#pragma once

// StageLatencyRecorder: per-stage tail-latency decomposition on the virtual
// clock (DESIGN.md section 7).
//
// One sim::LatencyHistogram per pipeline stage, recorded at the same seams the
// lifecycle ledger marks (ibq wait -> pack -> dma.tx -> fpga -> dma.rx ->
// distributor, plus the fallback and retry side paths) -- but independent of
// the ledger, which is compiled out of Release builds.  A packet's
// end-to-end latency (NIC RX timestamp -> OBQ delivery) is recorded per NF,
// so "where is the p999 going" decomposes into "which stage ate it".
//
// Hot-path cost discipline: the batched stages record once per *batch* with
// record_n (every packet in a batch shares the segment's two timestamps);
// the only per-packet work inside a timed poll loop is one enabled check
// and one timestamp store (Packer ingress).  Per-packet e2e / ibq-wait
// records happen inside the deferred delivery event, outside the timed
// sections.  The bench_micro introspection A/B measures this budget.
//
// Not thread-safe: single-writer (the simulation thread); exporters
// serialize on the same thread and publish strings.

#include <array>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>

#include "dhl/common/units.hpp"
#include "dhl/sim/stats.hpp"

namespace dhl::telemetry {

/// Pipeline stages, mirroring the lifecycle ledger's seams.
enum class Stage : std::uint8_t {
  kIbqWait = 0,   ///< NIC RX timestamp -> Packer dequeue
  kPack,          ///< first packet appended -> batch flushed
  kDmaTx,         ///< flush -> TX DMA delivery at the FPGA (incl. doorbell
                  ///< deferral and any retry backoff)
  kFpga,          ///< TX delivery -> return DMA submitted (dispatch +
                  ///< module processing + fabric residency)
  kDmaRx,         ///< RX submit -> RX DMA delivery at the host
  kDistributor,   ///< RX delivery -> Distributor decapsulation
  kFallback,      ///< ingress -> software-fallback delivery (side path)
  kRetryBackoff,  ///< backoff waits added by DMA submit retries (per batch)
  kEndToEnd,      ///< NIC RX timestamp -> OBQ delivery (all NFs)
  kCount,
};

const char* to_string(Stage stage);

class StageLatencyRecorder {
 public:
  static constexpr std::size_t kMaxNfs = 256;

  StageLatencyRecorder() = default;
  StageLatencyRecorder(const StageLatencyRecorder&) = delete;
  StageLatencyRecorder& operator=(const StageLatencyRecorder&) = delete;

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  void record(Stage stage, Picos dt) { record_n(stage, dt, 1); }

  /// `dt` must be a well-formed difference of virtual timestamps -- the
  /// caller guards against underflow (Picos is unsigned).
  void record_n(Stage stage, Picos dt, std::uint64_t n) {
    if (!enabled_) return;
    hist_[static_cast<std::size_t>(stage)].record_n(
        static_cast<std::uint64_t>(dt), n);
  }

  /// End-to-end latency of one delivered packet.  Records into the per-NF
  /// series only; the kEndToEnd aggregate is materialized by merging the
  /// per-NF shards when stage(kEndToEnd) is read, keeping the delivery path
  /// at one histogram record per packet.
  void record_e2e(std::uint8_t nf, Picos dt);

  /// Cumulative histogram for a stage.  kEndToEnd is a merge-at-read view
  /// over the per-NF e2e shards; the returned reference is invalidated by
  /// the next stage(kEndToEnd) call, so callers that need a stable window
  /// baseline copy it (as SloWatchdog does).
  const sim::LatencyHistogram& stage(Stage stage) const;
  /// Per-NF end-to-end histogram; null when the NF never delivered.
  const sim::LatencyHistogram* e2e(std::uint8_t nf) const {
    return e2e_[nf].get();
  }

  /// Registered display name for an NF id (the runtime wires register_nf
  /// through here); falls back to "nf<N>".
  void set_nf_name(std::uint8_t nf, std::string name) {
    names_[nf] = std::move(name);
  }
  std::string nf_name(std::uint8_t nf) const;
  /// Resolve a registered NF name back to its id; kMaxNfs when unknown.
  std::size_t nf_id_by_name(const std::string& name) const;

  /// Tenant the NF belongs to (the runtime wires register_nf through
  /// here); empty when never bound.  Lets the SloWatchdog and exporters
  /// slice e2e latency per tenant without a dependency on the runtime's
  /// TenantRegistry.
  void set_nf_tenant(std::uint8_t nf, std::string tenant) {
    tenants_[nf] = std::move(tenant);
  }
  const std::string& nf_tenant(std::uint8_t nf) const { return tenants_[nf]; }
  /// Merge-at-read e2e view over the NFs bound to `tenant` -- the
  /// per-tenant analogue of stage(kEndToEnd), with the same invalidation
  /// contract: the reference is reused by the next e2e_tenant() /
  /// stage(kEndToEnd) call, so copy it for a stable baseline.
  const sim::LatencyHistogram& e2e_tenant(const std::string& tenant) const;

  void reset();

  /// {"stages": {"ibq_wait": {...}, ...}, "e2e_by_nf": {"<name>": {...}}}
  void write_json(std::ostream& os) const;
  std::string to_json() const;

 private:
  bool enabled_ = true;
  // The kEndToEnd slot stays zero: e2e samples live in the per-NF shards
  // and are merged into e2e_agg_ on read (see stage()).
  std::array<sim::LatencyHistogram, static_cast<std::size_t>(Stage::kCount)>
      hist_;
  // Per-NF e2e series allocated on first delivery (30 KB of bins each).
  std::array<std::unique_ptr<sim::LatencyHistogram>, kMaxNfs> e2e_;
  std::array<std::string, kMaxNfs> names_;
  std::array<std::string, kMaxNfs> tenants_;
  mutable sim::LatencyHistogram e2e_agg_;  // merge-at-read aggregate scratch
  mutable sim::LatencyHistogram tenant_agg_;  // scratch for e2e_tenant()
};

}  // namespace dhl::telemetry
