#include "dhl/runtime/tenant.hpp"

#include <algorithm>
#include <sstream>

#include "dhl/common/check.hpp"
#include "dhl/telemetry/drop_site.hpp"

namespace dhl {

TenantRegistry::TenantRegistry(telemetry::MetricsRegistry& metrics)
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
  const telemetry::Labels labels{{"tenant", name}};
  t->admitted_pkts = metrics_.counter("dhl.tenant.admitted_pkts", labels);
  t->rejected_pkts = metrics_.counter("dhl.tenant.rejected_pkts", labels);
  t->delivered_pkts = metrics_.counter("dhl.tenant.delivered_pkts", labels);
  t->dropped_pkts = metrics_.counter("dhl.tenant.dropped_pkts", labels);
  t->quota_drops = metrics_.counter(
      telemetry::drop_site(telemetry::DropSite::kQuota).counter, labels);
  t->flush_deferrals = metrics_.counter("dhl.tenant.flush_deferrals", labels);
  t->outstanding_gauge = metrics_.gauge("dhl.tenant.outstanding_bytes", labels);
  t->batches_gauge = metrics_.gauge("dhl.tenant.batches_in_flight", labels);
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
    t.rejected_pkts->add();
    return false;
  }
  t.ibq_bytes += bytes;
  update_gauges(t);
  return true;
}

void TenantRegistry::unwind_admit(TenantContext& t, std::uint64_t bytes) {
  t.ibq_bytes -= std::min(t.ibq_bytes, bytes);
  t.rejected_pkts->add();
  update_gauges(t);
}

void TenantRegistry::on_packer_ingest(netio::NfId nf, std::uint64_t bytes) {
  TenantContext& t = context_of(nf);
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
  if (t != nullptr) t->flush_deferrals->add();
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

bool TenantRegistry::drained() const {
  for (const auto& t : tenants_) {
    if (t->ibq_bytes != 0 || t->inflight_bytes != 0 ||
        t->batches_in_flight != 0) {
      return false;
    }
  }
  return true;
}

std::vector<TenantAudit> TenantRegistry::audit() const {
  std::vector<TenantAudit> rows;
  for (const auto& t : tenants_) {
    TenantAudit row = t->audit();
    if (row.admitted + row.delivered + row.dropped != 0) {
      rows.push_back(std::move(row));
    }
  }
  return rows;
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
       << ", \"batches_in_flight\": " << t->batches_in_flight
       << ", \"admitted\": " << t->admitted_pkts->value()
       << ", \"rejected\": " << t->rejected_pkts->value()
       << ", \"delivered\": " << t->delivered_pkts->value()
       << ", \"dropped\": " << t->dropped_pkts->value() << '}';
  }
  os << ']';
  return os.str();
}

void TenantRegistry::update_gauges(TenantContext& t) {
  t.outstanding_gauge->set(static_cast<double>(t.outstanding_bytes()));
  t.batches_gauge->set(static_cast<double>(t.batches_in_flight));
}

}  // namespace dhl
