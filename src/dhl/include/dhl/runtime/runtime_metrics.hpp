#pragma once

// Shared data-plane instruments and counters of the DHL Runtime.
//
// The Packer, Distributor and FallbackRouter all account packets against
// the same dhl.runtime.* series and the same lazily-created per-(nf, acc)
// counters; this object owns them so the components stay decoupled.  It
// also owns flight (DESIGN.md section 7): a packet is in flight from the
// Packer's IBQ dequeue until one of the runtime's two packet exits --
// deliver() or drop() -- and a flushed batch is in flight from launch() on a
// replica until land(), wherever its round trip ends.

#include <array>
#include <functional>
#include <map>
#include <string>

#include "dhl/fpga/batch.hpp"
#include "dhl/netio/mbuf.hpp"
#include "dhl/runtime/hw_function_table.hpp"
#include "dhl/runtime/ledger.hpp"
#include "dhl/runtime/tenant.hpp"
#include "dhl/runtime/types.hpp"
#include "dhl/telemetry/drop_site.hpp"
#include "dhl/telemetry/telemetry.hpp"

namespace dhl::runtime {

struct RuntimeMetrics {
  RuntimeMetrics(telemetry::Telemetry& telemetry, TenantRegistry& tenants,
                 LifecycleLedger& ledger, HwFunctionTable& table);

  /// Hot-path counters for one (nf_id, acc_id) pair, created lazily on
  /// first packet so the registry only carries live series.
  struct NfAccCounters {
    telemetry::Counter* pkts = nullptr;      // host -> FPGA
    telemetry::Counter* bytes = nullptr;     // host -> FPGA payload bytes
    telemetry::Counter* returned = nullptr;  // FPGA -> host
    telemetry::Counter* errors = nullptr;    // error-flagged records
  };

  NfAccCounters& nf_acc(netio::NfId nf_id, netio::AccId acc_id);

  /// Drop `m` at `site` (DESIGN.md section 7): count it on the site's
  /// counter (the tenant's dhl.tenant.quota_drops for kQuota) and in the
  /// dhl.tenant.dropped_pkts of the tenant that admitted it (m->nf_id()),
  /// close its ledger record, release it.
  void drop(netio::Mbuf* m, DropSite site);

  /// Deliver `m` into the private OBQ of NF `nf_id` (`nf`) at virtual time
  /// `now`.  A full OBQ refuses it: dhl.nf.obq_drops, a Distributor
  /// flight-recorder "obq" drop event, then drop(m, kObq).  Otherwise its
  /// ledger record closes as delivered, its tenant counts it, and its
  /// end-to-end latency and `stage` are recorded -- kIbqWait ends at the
  /// Packer's dequeue stamp, kFallback at delivery, and the NF's OBQ
  /// consumer lcore is woken.  Either way the NF's dhl.nf.obq_depth gauge
  /// is refreshed.
  void deliver(NfInfo& nf, netio::NfId nf_id, netio::Mbuf* m, Picos now,
               telemetry::Stage stage);

  /// `batch` enters flight on `replica`, whose acc_id its records already
  /// carry: stamp the replica's acc_gen and hf_name into it, charge its
  /// submitted_bytes to the replica's outstanding bytes and the batch to
  /// `tenant`'s batch budget.
  void launch(fpga::DmaBatch& batch, HwFunctionEntry& replica,
              TenantId tenant);

  /// `batch`'s round trip ended: it came back (`intact` when it passed the
  /// integrity gate) or its retry budget ran out.  If the replica it was
  /// launched on still holds its acc_id slot (generation check), settle
  /// that replica's outstanding bytes and credit (intact) or blame it;
  /// otherwise count a stale batch, unless the batch was never launched
  /// (acc_gen 0).  Either way retire the tenant charge.  Returns the
  /// replica, or null when stale.
  HwFunctionEntry* land(fpga::DmaBatch& batch, bool intact);

  telemetry::Telemetry& telemetry;
  TenantRegistry& tenants;
  /// Packet-lifecycle ledger (a no-op stub in DHL_LEDGER=0 builds).
  LifecycleLedger& ledger;
  /// Resolves an NF id to its registered name for counter labels; falls
  /// back to "nf<id>" when unset or out of range.
  std::function<std::string(netio::NfId)> nf_name;

  // dhl.runtime.* packet and batch instruments.
  telemetry::Counter* pkts_to_fpga = nullptr;
  telemetry::Counter* batches_to_fpga = nullptr;
  telemetry::Counter* bytes_to_fpga = nullptr;
  telemetry::Counter* pkts_from_fpga = nullptr;
  telemetry::Counter* batches_from_fpga = nullptr;
  telemetry::Counter* error_records = nullptr;
  // Packer behaviour: why batches shipped and how full they were.
  telemetry::Counter* flush_full = nullptr;
  telemetry::Counter* flush_timeout = nullptr;
  /// Batches whose acc_id slot was recycled (unload + reload) while they
  /// were in flight; detected by the generation tag, routed by hf_name.
  telemetry::Counter* stale_acc_batches = nullptr;
  /// Batch fill at flush in parts-per-million of the *effective* cap at
  /// flush time -- batch_cap(), i.e. the adaptive cap when adaptive
  /// batching has shrunk it, max_batch_bytes otherwise.
  sim::LatencyHistogram* batch_fill_ppm = nullptr;
  // Zero-copy data-plane accounting: payload bytes that were memcpy'd on
  // the host path (RX write-back) vs. bytes that moved by SG descriptor or
  // skipped the write-back.
  telemetry::Counter* copy_bytes = nullptr;       // dhl.copy_bytes
  telemetry::Counter* zero_copy_bytes = nullptr;  // dhl.zero_copy_bytes
  // Failure model (DESIGN.md section 3.3).
  /// DMA TX submits retried after an injected/observed submit failure.
  telemetry::Counter* dma_retries = nullptr;  // dhl.dma.retries
  /// Whole batches dropped by the Distributor's integrity gate (CRC
  /// mismatch or unparseable wire bytes); their packets are kCrc drops.
  telemetry::Counter* crc_drop_batches = nullptr;  // dhl.batch.crc_drops
  /// Packets served by a registered software fallback (dhl.fallback.pkts).
  telemetry::Counter* fallback_pkts = nullptr;

  /// Packets the Packer has dequeued from an IBQ that have not yet been
  /// delivered or dropped: += at the dequeue, -- only in deliver() and
  /// drop().  Exact at every event: summed over tenants, admitted = IBQ
  /// packets + in_flight + delivered + dropped.
  std::uint64_t in_flight = 0;
  /// Correlates a batch's telemetry spans across components.
  std::uint64_t next_batch_id = 1;

 private:
  HwFunctionTable& table_;
  /// Each site's counter from telemetry::kDropSites; null for kQuota, whose
  /// counter is per tenant (TenantContext::quota_drops).
  std::array<telemetry::Counter*, telemetry::kDropSites.size()>
      drop_counters_{};
  /// Keyed on (nf_id << 16) | acc_id.  The shift is 16 (not the ids' 8-bit
  /// width) so a widened AccId -- long-running PR churn pushing past 256 --
  /// can never alias another NF's counters.
  std::map<std::uint32_t, NfAccCounters> nf_acc_;
};

}  // namespace dhl::runtime
