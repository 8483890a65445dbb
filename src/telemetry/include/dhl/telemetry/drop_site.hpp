#pragma once

// DropSite: the one drop taxonomy of the DHL runtime (DESIGN.md section 7).
//
// Every packet the runtime drops between IBQ admission and OBQ delivery is
// dropped at exactly one of these sites, through one seam
// (runtime::RuntimeMetrics::drop), and counted by exactly one existing
// counter: the table below.  Readers -- the all-NF SLO drop rate, the
// scenario drop-site breakdown, conservation tests -- iterate the table
// instead of spelling out counter names.  Drops before admission (NIC RX,
// mempool) and after delivery (NF shells) are outside the taxonomy.

#include <array>
#include <cstddef>
#include <cstdint>

#include "dhl/telemetry/metrics.hpp"

namespace dhl::telemetry {

/// Drop sites, in table order.
enum class DropSite : std::uint8_t {
  kUnready,   // unknown/unready acc_id, or an unload raced an open batch
  kSubmit,    // retry budget + redirect + fallback all exhausted
  kOversize,  // record over the DMA hardware cap, no fallback registered
  kObq,       // OBQ full or nf_id out of range
  kCrc,       // batch failed the Distributor's integrity gate
  kQuota,     // tenant batch budget exhausted at a capacity flush
};

struct DropSiteInfo {
  const char* name;     // short reason for reports and logs
  const char* counter;  // the metric family counting this site's drops
};

/// Indexed by DropSite.  The quota counter is labelled {tenant}; the others
/// are unlabelled.
inline constexpr std::array<DropSiteInfo, 6> kDropSites{{
    {"unready", "dhl.runtime.unready_drops"},
    {"submit", "dhl.runtime.submit_drop_pkts"},
    {"oversize", "dhl.runtime.oversize_drops"},
    {"obq", "dhl.runtime.obq_drops"},
    {"crc", "dhl.batch.crc_drop_pkts"},
    {"quota", "dhl.tenant.quota_drops"},
}};

inline constexpr const DropSiteInfo& drop_site(DropSite site) {
  return kDropSites[static_cast<std::size_t>(site)];
}

/// Every counted drop in `snap`: the table's counters summed over labels.
inline double total_drops(const MetricsSnapshot& snap) {
  double total = 0;
  for (const DropSiteInfo& s : kDropSites) total += snap.sum(s.counter);
  return total;
}

}  // namespace dhl::telemetry
