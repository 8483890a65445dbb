#include "dhl/runtime/config_load.hpp"

#include "dhl/common/simd.hpp"

namespace dhl::runtime {

namespace {

DispatchPolicyKind parse_policy(const std::string& s,
                                DispatchPolicyKind fallback) {
  if (s == "numa_local") return DispatchPolicyKind::kNumaLocal;
  if (s == "round_robin") return DispatchPolicyKind::kRoundRobin;
  if (s == "least_outstanding_bytes") {
    return DispatchPolicyKind::kLeastOutstandingBytes;
  }
  return fallback;
}

}  // namespace

void apply_runtime_config(const common::ConfigFile& file,
                          RuntimeConfig& config) {
  const std::string s = "runtime";
  config.num_sockets = static_cast<int>(
      file.get_int(s, "num_sockets", config.num_sockets));
  config.ibq_size = static_cast<std::uint32_t>(
      file.get_uint(s, "ibq_size", config.ibq_size));
  config.obq_size = static_cast<std::uint32_t>(
      file.get_uint(s, "obq_size", config.obq_size));
  config.ibq_burst = static_cast<std::uint32_t>(
      file.get_uint(s, "ibq_burst", config.ibq_burst));
  config.numa_aware = file.get_bool(s, "numa_aware", config.numa_aware);
  config.dispatch_policy = parse_policy(
      file.get_string(s, "dispatch_policy", ""), config.dispatch_policy);
  config.crc_check = file.get_bool(s, "crc_check", config.crc_check);
  // Process-wide ISA cap for the CPU vector kernels (common/simd.hpp):
  // `simd = scalar|sse42|aesni|avx2`.  Unset keeps the DHL_SIMD
  // environment variable (or no cap) in charge.
  if (const std::string isa = file.get_string(s, "simd", ""); !isa.empty()) {
    common::simd::Isa cap = common::simd::kMaxIsa;
    if (common::simd::parse_isa(isa, cap)) common::simd::set_cap(cap);
  }
}

std::vector<TenantStanza> tenant_stanzas(const common::ConfigFile& file) {
  std::vector<TenantStanza> out;
  for (const common::ConfigFile::Section* sec : file.sections_named("tenant")) {
    if (sec->arg.empty()) continue;
    TenantStanza t;
    t.name = sec->arg;
    const std::string scope = "tenant " + sec->arg;
    t.quota.outstanding_bytes_cap =
        file.get_uint(scope, "outstanding_bytes_cap", 0);
    t.quota.max_batches_in_flight = static_cast<std::uint32_t>(
        file.get_uint(scope, "max_batches_in_flight", 0));
    t.slo_p99_us = file.get_double(scope, "slo_p99_us", 0);
    t.slo_drop_rate = file.get_double(scope, "slo_drop_rate", -1.0);
    out.push_back(std::move(t));
  }
  return out;
}

}  // namespace dhl::runtime
