#pragma once

// Tenancy: first-class tenants inside one DhlRuntime (DESIGN.md section 8).
//
// A tenant scopes admission and quota state for a set of NFs.  Two budgets
// exist per tenant, both enforced with *counted* rejections, never silent
// drops:
//
//  - outstanding-bytes: bytes admitted into IBQs plus bytes in flight to the
//    FPGA.  Enforced at IBQ ingest (DhlRuntime::send_packets): a burst that
//    would exceed the cap is truncated and the rejected tail stays owned by
//    the caller, with dhl.tenant.rejected_pkts counting the refusals.
//  - batch budget: DMA batches in flight.  Enforced at Packer flush: a
//    timeout flush over budget is deferred (the batch stays open and flushes
//    when a slot frees); a capacity flush over budget turns the incoming
//    packet into a counted quota drop (DropSite::kQuota).
//
// Conservation: every admitted packet ends delivered or dropped, and the
// registry counts all three per tenant in every build type.  audit() turns
// that into the per-tenant check: after a drain, admitted == delivered +
// dropped for every tenant.
//
// Tenant 0 ("default") always exists with unlimited quota, so single-tenant
// callers -- every pre-existing test, bench and example -- see no behavior
// change.  Accounting uses two counters (ibq_bytes for queued, inflight_bytes
// for charged batches) because payload sizes can change inside the FPGA
// (compression, ESP encap): the queued side is charged at admission and
// debited exactly at Packer ingest (admission is the only way into an IBQ
// and stamps the admitting NF's nf_id, so both sides name the same tenant
// and the same bytes), the in-flight side is charged/retired with the
// batch's own submitted_bytes, so neither can drift negative.
//
// Not thread-safe: single-writer (the simulation thread), same contract as
// the rest of the runtime.

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dhl/fpga/batch.hpp"
#include "dhl/netio/mbuf.hpp"
#include "dhl/telemetry/metrics.hpp"

namespace dhl {

using TenantId = std::uint8_t;

inline constexpr TenantId kDefaultTenant = 0;
inline constexpr TenantId kInvalidTenant = 0xff;
inline constexpr std::size_t kMaxTenants = 16;

/// Per-tenant budgets.  Zero means unlimited.
struct TenantQuota {
  /// Cap on bytes admitted to IBQs + bytes in flight to the FPGA.
  std::uint64_t outstanding_bytes_cap = 0;
  /// Cap on DMA batches in flight (flushed, not yet retired).
  std::uint32_t max_batches_in_flight = 0;
};

/// One tenant's conservation row, read from its counters.
struct TenantAudit {
  std::string tenant;
  std::uint64_t admitted = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;

  /// Admitted packets with no terminal yet: in flight mid-run, leaked after
  /// a drain; negative when packets were terminated more than once.
  std::int64_t live() const {
    return static_cast<std::int64_t>(admitted) -
           static_cast<std::int64_t>(delivered + dropped);
  }
  bool clean() const { return admitted == delivered + dropped; }
};

/// One tenant's live admission state plus its metric instruments.
struct TenantContext {
  TenantId id = kDefaultTenant;
  std::string name;
  TenantQuota quota;

  /// Bytes admitted into IBQs, not yet ingested by the Packer.
  std::uint64_t ibq_bytes = 0;
  /// Bytes charged to in-flight DMA batches (submitted_bytes at flush).
  std::uint64_t inflight_bytes = 0;
  /// DMA batches flushed and not yet retired.
  std::uint32_t batches_in_flight = 0;

  telemetry::Counter* admitted_pkts = nullptr;
  telemetry::Counter* rejected_pkts = nullptr;
  telemetry::Counter* delivered_pkts = nullptr;
  telemetry::Counter* dropped_pkts = nullptr;
  telemetry::Counter* quota_drops = nullptr;
  telemetry::Counter* flush_deferrals = nullptr;
  telemetry::Gauge* outstanding_gauge = nullptr;
  telemetry::Gauge* batches_gauge = nullptr;

  std::uint64_t outstanding_bytes() const { return ibq_bytes + inflight_bytes; }
  TenantAudit audit() const {
    return {name, admitted_pkts->value(), delivered_pkts->value(),
            dropped_pkts->value()};
  }
};

/// Registry of tenants plus the NF -> tenant binding used on the hot path.
///
/// The runtime owns one instance.  The Packer consults it at IBQ ingest and
/// flush (batch budget); batch charges and retires reach it through
/// RuntimeMetrics::launch/land, deliveries and drops through
/// RuntimeMetrics::deliver/drop.  tenant_of() is a dense array lookup, so
/// the per-packet cost is one index plus one branch.
class TenantRegistry {
 public:
  explicit TenantRegistry(telemetry::MetricsRegistry& metrics);
  TenantRegistry(const TenantRegistry&) = delete;
  TenantRegistry& operator=(const TenantRegistry&) = delete;

  /// Create a tenant; returns kInvalidTenant when the name is taken or the
  /// registry is full.
  TenantId create(const std::string& name, const TenantQuota& quota);

  TenantContext* by_name(const std::string& name);
  TenantContext* context(TenantId id) {
    return id < tenants_.size() ? tenants_[id].get() : nullptr;
  }
  const TenantContext* context(TenantId id) const {
    return id < tenants_.size() ? tenants_[id].get() : nullptr;
  }
  std::size_t count() const { return tenants_.size(); }

  /// Bind an NF id to a tenant (default binding is tenant 0).
  void bind_nf(netio::NfId nf, TenantId tenant) { nf_tenant_[nf] = tenant; }
  TenantId tenant_of(netio::NfId nf) const { return nf_tenant_[nf]; }
  TenantContext& context_of(netio::NfId nf) {
    return *tenants_[nf_tenant_[nf]];
  }
  std::string tenant_name(TenantId id) const;

  // -- hot-path helpers ----------------------------------------------------

  /// Admission at IBQ ingest: true when `bytes` fits under the tenant's
  /// outstanding-bytes cap (charging ibq_bytes), false when rejected
  /// (counted).  Unlimited caps always admit.  The caller counts
  /// admitted_pkts once the IBQ ring has taken the packet.
  bool try_admit(TenantContext& t, std::uint64_t bytes);

  /// Undo an admit for packets the IBQ ring itself refused (ring full).
  /// The refusal is counted as a rejection -- the caller keeps the packet.
  void unwind_admit(TenantContext& t, std::uint64_t bytes);

  /// Packer dequeued a packet: move its bytes out of the queued bucket.
  /// Exact: every IBQ packet was admitted under this tenant with these
  /// bytes (DHL_DCHECKed).
  void on_packer_ingest(netio::NfId nf, std::uint64_t bytes);

  /// True when the tenant may flush another batch.
  bool can_flush(TenantId id) const;
  void note_flush_deferred(TenantId id);

  /// Charge a flushed batch to its tenant; stamps batch.tenant and the
  /// tenant_charged flag so retire_batch is idempotent.
  void charge_batch(TenantId id, fpga::DmaBatch& batch);
  /// Retire a charged batch when it lands (completion, corrupt drop, retry
  /// exhaustion).  No-op when the batch was never charged.
  void retire_batch(fpga::DmaBatch& batch);

  void count_delivered(netio::NfId nf) {
    context_of(nf).delivered_pkts->add();
  }

  /// True when no tenant holds queued or in-flight bytes or batches.
  bool drained() const;

  /// The per-tenant conservation check: one row per tenant that has
  /// counted a packet, in tenant-id order.  After a drain every row must
  /// be clean().
  std::vector<TenantAudit> audit() const;

  /// JSON array of per-tenant rows for stream snapshots / dhl-top.
  std::string to_json() const;

 private:
  void update_gauges(TenantContext& t);

  telemetry::MetricsRegistry& metrics_;
  std::vector<std::unique_ptr<TenantContext>> tenants_;
  std::array<TenantId, 256> nf_tenant_{};  // zero-init == kDefaultTenant
};

}  // namespace dhl
