#pragma once

// Config-file -> runtime mapping (DESIGN.md section 8).
//
// Translates the generic common::ConfigFile stanzas into the runtime's
// typed structures:
//
//   [runtime]            -> RuntimeConfig fields (apply_runtime_config)
//   [tenant <name>] ...  -> TenantStanza rows (tenant_stanzas)
//
// Shared by dhl-daemon, examples and benches so one committed .conf drives
// them all.  Unknown keys are ignored (forward compatibility); type errors
// are collected into the ConfigFile's errors() by the typed getters.

#include <string>
#include <vector>

#include "dhl/common/config_file.hpp"
#include "dhl/runtime/tenant.hpp"
#include "dhl/runtime/types.hpp"

namespace dhl::runtime {

/// One `[tenant <name>]` stanza: quotas plus optional per-tenant SLO
/// ceilings (picked up by whoever assembles the SloWatchdog).
struct TenantStanza {
  std::string name;
  TenantQuota quota;
  /// Windowed e2e p99 ceiling in microseconds; 0 = no latency SLO.
  double slo_p99_us = 0;
  /// Drop-rate budget per window; negative = no drop SLO.
  double slo_drop_rate = -1.0;
};

/// Overlay `[runtime]` keys onto `config` (fields without a key keep their
/// current value).  Recognized keys: num_sockets, ibq_size, obq_size,
/// ibq_burst, numa_aware, dispatch_policy
/// (numa_local|round_robin|least_outstanding_bytes), crc_check, simd.
void apply_runtime_config(const common::ConfigFile& file,
                          RuntimeConfig& config);

/// All `[tenant <name>]` stanzas, in file order.  Keys:
/// outstanding_bytes_cap, max_batches_in_flight, slo_p99_us,
/// slo_drop_rate.  Stanzas without an argument name are skipped.
std::vector<TenantStanza> tenant_stanzas(const common::ConfigFile& file);

}  // namespace dhl::runtime
