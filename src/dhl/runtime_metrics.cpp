#include "dhl/runtime/runtime_metrics.hpp"

#include <algorithm>

namespace dhl::runtime {

RuntimeMetrics::RuntimeMetrics(telemetry::Telemetry& telemetry,
                               TenantRegistry& tenants,
                               LifecycleLedger& ledger, HwFunctionTable& table)
    : telemetry{telemetry}, tenants{tenants}, ledger{ledger}, table_{table} {
  telemetry::MetricsRegistry& registry = telemetry.metrics;
  for (std::size_t i = 0; i < telemetry::kDropSites.size(); ++i) {
    if (static_cast<DropSite>(i) != DropSite::kQuota) {
      drop_counters_[i] = registry.counter(telemetry::kDropSites[i].counter);
    }
  }
  pkts_to_fpga = registry.counter("dhl.runtime.pkts_to_fpga");
  batches_to_fpga = registry.counter("dhl.runtime.batches_to_fpga");
  bytes_to_fpga = registry.counter("dhl.runtime.bytes_to_fpga");
  pkts_from_fpga = registry.counter("dhl.runtime.pkts_from_fpga");
  batches_from_fpga = registry.counter("dhl.runtime.batches_from_fpga");
  error_records = registry.counter("dhl.runtime.error_records");
  flush_full = registry.counter("dhl.runtime.flush_full_batches");
  flush_timeout = registry.counter("dhl.runtime.flush_timeout_batches");
  stale_acc_batches = registry.counter("dhl.runtime.stale_acc_batches");
  batch_fill_ppm = registry.histogram("dhl.runtime.batch_fill_ppm");
  copy_bytes = registry.counter("dhl.copy_bytes");
  zero_copy_bytes = registry.counter("dhl.zero_copy_bytes");
  dma_retries = registry.counter("dhl.dma.retries");
  crc_drop_batches = registry.counter("dhl.batch.crc_drops");
  fallback_pkts = registry.counter("dhl.fallback.pkts");
}

void RuntimeMetrics::drop(netio::Mbuf* m, DropSite site) {
  TenantContext& t = tenants.context_of(m->nf_id());
  telemetry::Counter* site_counter =
      site == DropSite::kQuota ? t.quota_drops
                               : drop_counters_[static_cast<std::size_t>(site)];
  site_counter->add(1);
  t.dropped_pkts->add(1);
  --in_flight;
  ledger.on_drop(m, site);
  m->release();
}

void RuntimeMetrics::deliver(NfInfo& nf, netio::NfId nf_id, netio::Mbuf* m,
                             Picos now, telemetry::Stage stage) {
  if (!nf.obq->enqueue(m)) {
    nf.obq_drops->add(1);
    telemetry.recorder.log(telemetry::FlightComponent::kDistributor, now,
                           telemetry::FlightEventKind::kDrop, "obq",
                           static_cast<std::int16_t>(nf_id));
    drop(m, DropSite::kObq);
  } else {
    if (nf.obq_consumer != nullptr) nf.obq_consumer->wake();
    --in_flight;
    ledger.on_delivered(m);
    tenants.count_delivered(nf_id);
    const Picos rx = m->rx_timestamp();
    if (telemetry.stages.enabled() && rx != netio::kNoRxTimestamp) {
      const Picos stage_end =
          stage == telemetry::Stage::kIbqWait ? m->stage_ts() : now;
      if (stage_end != netio::kNoRxTimestamp && stage_end >= rx) {
        telemetry.stages.record(stage, stage_end - rx);
      }
      if (now >= rx) telemetry.stages.record_e2e(nf_id, now - rx);
    }
  }
  nf.obq_depth->set(static_cast<double>(nf.obq->count()));
}

void RuntimeMetrics::launch(fpga::DmaBatch& batch, HwFunctionEntry& replica,
                            TenantId tenant) {
  // The generation pins the acc_id slot's current owner (slots recycle
  // across unload/reload); the name lets retry exhaustion route to the
  // right software fallback even after the entry vanishes.
  batch.acc_gen = replica.acc_gen;
  batch.hf_name = replica.hf_name;
  replica.outstanding_bytes += batch.submitted_bytes;
  tenants.charge_batch(tenant, batch);
}

HwFunctionEntry* RuntimeMetrics::land(fpga::DmaBatch& batch, bool intact) {
  // Generation-checked: an unload may have raced the round trip, and after
  // a reload the slot's new owner neither carried these bytes nor earned
  // this credit or blame.
  HwFunctionEntry* e = table_.entry_for(batch.acc_id(), batch.acc_gen);
  if (e != nullptr) {
    e->outstanding_bytes -=
        std::min<std::uint64_t>(e->outstanding_bytes, batch.submitted_bytes);
    if (intact) {
      table_.note_replica_success(e);
    } else {
      table_.note_replica_failure(e);
    }
  } else if (batch.acc_gen != 0) {
    stale_acc_batches->add(1);
  }
  tenants.retire_batch(batch);
  return e;
}

RuntimeMetrics::NfAccCounters& RuntimeMetrics::nf_acc(netio::NfId nf_id,
                                                      netio::AccId acc_id) {
  const std::uint32_t key =
      (static_cast<std::uint32_t>(nf_id) << 16) | acc_id;
  const auto it = nf_acc_.find(key);
  if (it != nf_acc_.end()) return it->second;
  const std::string name = nf_name ? nf_name(nf_id)
                                   : "nf" + std::to_string(nf_id);
  const telemetry::Labels labels{
      {"nf", name}, {"acc", std::to_string(static_cast<int>(acc_id))}};
  NfAccCounters c;
  telemetry::MetricsRegistry& registry = telemetry.metrics;
  c.pkts = registry.counter("dhl.runtime.nf_pkts", labels);
  c.bytes = registry.counter("dhl.runtime.nf_bytes", labels);
  c.returned = registry.counter("dhl.runtime.nf_returned_pkts", labels);
  c.errors = registry.counter("dhl.runtime.nf_error_records", labels);
  return nf_acc_.emplace(key, c).first->second;
}

}  // namespace dhl::runtime
