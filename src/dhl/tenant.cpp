#include "dhl/runtime/tenant.hpp"

#include <algorithm>
#include <sstream>

#include "dhl/common/check.hpp"

namespace dhl {

TenantRegistry::TenantRegistry(telemetry::MetricsRegistry* metrics)
    : metrics_(metrics) {
  // Tenant 0 always exists with unlimited quota so single-tenant callers
  // (every legacy test / bench / example) see no behavior change.
  create("default", TenantQuota{});
}

TenantId TenantRegistry::create(const std::string& name,
                                const TenantQuota& quota) {
  if (name.empty() || tenants_.size() >= kMaxTenants) return kInvalidTenant;
  if (by_name(name) != nullptr) return kInvalidTenant;

  auto t = std::make_unique<TenantContext>();
  t->id = static_cast<TenantId>(tenants_.size());
  t->name = name;
  t->quota = quota;
  if (metrics_ != nullptr) {
    const telemetry::Labels labels{{"tenant", name}};
    t->admitted_pkts = metrics_->counter("dhl.tenant.admitted_pkts", labels);
    t->rejected_pkts = metrics_->counter("dhl.tenant.rejected_pkts", labels);
    t->delivered_pkts = metrics_->counter("dhl.tenant.delivered_pkts", labels);
    t->dropped_pkts = metrics_->counter("dhl.tenant.dropped_pkts", labels);
    t->quota_drops = metrics_->counter("dhl.tenant.quota_drops", labels);
    t->flush_deferrals =
        metrics_->counter("dhl.tenant.flush_deferrals", labels);
    t->outstanding_gauge =
        metrics_->gauge("dhl.tenant.outstanding_bytes", labels);
    t->batches_gauge = metrics_->gauge("dhl.tenant.batches_in_flight", labels);
  }
  const TenantId id = t->id;
  tenants_.push_back(std::move(t));
  return id;
}

TenantContext* TenantRegistry::by_name(const std::string& name) {
  for (auto& t : tenants_) {
    if (t->name == name) return t.get();
  }
  return nullptr;
}

std::string TenantRegistry::tenant_name(TenantId id) const {
  const TenantContext* t = context(id);
  return t != nullptr ? t->name : "tenant" + std::to_string(int{id});
}

bool TenantRegistry::try_admit(TenantContext& t, std::uint64_t bytes) {
  if (t.quota.outstanding_bytes_cap != 0 &&
      t.outstanding_bytes() + bytes > t.quota.outstanding_bytes_cap) {
    if (t.rejected_pkts != nullptr) t.rejected_pkts->add();
    return false;
  }
  t.ibq_bytes += bytes;
  if (t.admitted_pkts != nullptr) t.admitted_pkts->add();
  update_gauges(t);
  return true;
}

void TenantRegistry::unwind_admit(TenantContext& t, std::uint64_t bytes) {
  t.ibq_bytes -= std::min(t.ibq_bytes, bytes);
  if (t.admitted_pkts != nullptr) {
    // The ring refused the packet after admission: reclassify as rejected.
    // Counter has no subtract, so the admit stands and the rejection is
    // counted alongside it; rejected_pkts is the authoritative refusal count.
    if (t.rejected_pkts != nullptr) t.rejected_pkts->add();
  }
  update_gauges(t);
}

void TenantRegistry::on_packer_ingest(netio::NfId nf, std::uint64_t bytes) {
  TenantContext& t = *tenants_[nf_tenant_[nf]];
  DHL_DCHECK(t.ibq_bytes >= bytes);
  t.ibq_bytes -= bytes;
  update_gauges(t);
}

bool TenantRegistry::can_flush(TenantId id) const {
  const TenantContext* t = context(id);
  if (t == nullptr || t->quota.max_batches_in_flight == 0) return true;
  return t->batches_in_flight < t->quota.max_batches_in_flight;
}

void TenantRegistry::note_flush_deferred(TenantId id) {
  TenantContext* t = context(id);
  if (t != nullptr && t->flush_deferrals != nullptr) t->flush_deferrals->add();
}

void TenantRegistry::charge_batch(TenantId id, fpga::DmaBatch& batch) {
  TenantContext* t = context(id);
  if (t == nullptr) return;
  batch.tenant = id;
  batch.tenant_charged = true;
  t->inflight_bytes += batch.submitted_bytes;
  ++t->batches_in_flight;
  update_gauges(*t);
}

void TenantRegistry::retire_batch(fpga::DmaBatch& batch) {
  if (!batch.tenant_charged) return;
  batch.tenant_charged = false;
  TenantContext* t = context(batch.tenant);
  if (t == nullptr) return;
  t->inflight_bytes -= std::min(t->inflight_bytes, batch.submitted_bytes);
  if (t->batches_in_flight > 0) --t->batches_in_flight;
  update_gauges(*t);
}

void TenantRegistry::count_delivered(netio::NfId nf) {
  TenantContext* t = context(nf_tenant_[nf]);
  if (t != nullptr && t->delivered_pkts != nullptr) t->delivered_pkts->add();
}

void TenantRegistry::count_drop(netio::NfId nf) {
  TenantContext* t = context(nf_tenant_[nf]);
  if (t != nullptr && t->dropped_pkts != nullptr) t->dropped_pkts->add();
}

void TenantRegistry::count_quota_drop(netio::NfId nf) {
  TenantContext* t = context(nf_tenant_[nf]);
  if (t == nullptr) return;
  if (t->quota_drops != nullptr) t->quota_drops->add();
  if (t->dropped_pkts != nullptr) t->dropped_pkts->add();
}

bool TenantRegistry::drained() const {
  for (const auto& t : tenants_) {
    if (t->ibq_bytes != 0 || t->inflight_bytes != 0 ||
        t->batches_in_flight != 0) {
      return false;
    }
  }
  return true;
}

std::string TenantRegistry::to_json() const {
  std::ostringstream os;
  os << '[';
  bool first = true;
  for (const auto& t : tenants_) {
    if (!first) os << ", ";
    first = false;
    os << "{\"tenant\": \"" << t->name << '"'
       << ", \"outstanding_bytes\": " << t->outstanding_bytes()
       << ", \"batches_in_flight\": " << t->batches_in_flight;
    const auto val = [](const telemetry::Counter* c) {
      return c != nullptr ? c->value() : 0;
    };
    os << ", \"admitted\": " << val(t->admitted_pkts)
       << ", \"rejected\": " << val(t->rejected_pkts)
       << ", \"delivered\": " << val(t->delivered_pkts)
       << ", \"dropped\": " << val(t->dropped_pkts) << '}';
  }
  os << ']';
  return os.str();
}

void TenantRegistry::update_gauges(TenantContext& t) {
  if (t.outstanding_gauge != nullptr) {
    t.outstanding_gauge->set(static_cast<double>(t.outstanding_bytes()));
  }
  if (t.batches_gauge != nullptr) {
    t.batches_gauge->set(static_cast<double>(t.batches_in_flight));
  }
}

}  // namespace dhl
