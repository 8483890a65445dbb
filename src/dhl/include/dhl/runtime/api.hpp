#pragma once

// Paper-style DHL programming API (Table II / Listing 2).
//
// These free functions mirror the C API of the paper one-to-one so that the
// example applications read like Listing 2.  Each is a thin forwarder to
// DhlRuntime; new code can equally use the methods directly.
//
//   nf_id  = DHL_register(rt, "ipsec-gw", socket);
//   acc    = DHL_search_by_name(rt, "aes_256_ctr", socket);
//   DHL_acc_configure(rt, acc, conf);
//   DHL_send_packets(rt, nf_id, pkts, n);
//   obq    = DHL_get_private_OBQ(rt, nf_id);
//   DHL_receive_packets(*obq, pkts, n);
//
// Listing 2 enqueues onto the IBQ itself; here DHL_send_packets names the
// NF instead, because tenant admission is the only way into an IBQ: it
// charges the NF's tenant quota and stamps nf_id into every packet it
// admits.  DHL_get_shared_IBQ stays for introspection (read-only).

#include "dhl/runtime/runtime.hpp"

namespace dhl {

/// An NF registers itself to the DHL Runtime.
inline netio::NfId DHL_register(runtime::DhlRuntime& rt,
                                const std::string& name, int socket) {
  return rt.register_nf(name, socket);
}

/// Register an NF under a tenant created via DHL_register_tenant.
inline netio::NfId DHL_register(runtime::DhlRuntime& rt,
                                const std::string& name, int socket,
                                TenantId tenant) {
  return rt.register_nf(name, socket, tenant);
}

/// Create a tenant with per-tenant admission quotas (DESIGN.md section 8).
/// Returns its id, or kInvalidTenant when the name is taken.
inline TenantId DHL_register_tenant(runtime::DhlRuntime& rt,
                                    const std::string& name,
                                    const TenantQuota& quota) {
  return rt.register_tenant(name, quota);
}

/// Query the desired hardware function (loads its PR bitstream on a miss).
inline runtime::AccHandle DHL_search_by_name(runtime::DhlRuntime& rt,
                                             const std::string& hf_name,
                                             int socket) {
  return rt.search_by_name(hf_name, socket);
}

/// Fuse an ordered list of hardware functions into one dispatchable chain:
/// a batch sent to the returned handle traverses every stage inside the
/// fabric and crosses PCIe once.  Stages must exist in the module database;
/// the fused footprint must fit one PR region.
inline runtime::AccHandle DHL_compose_chain(
    runtime::DhlRuntime& rt, const std::string& chain_name,
    const std::vector<std::string>& stage_hfs, int socket) {
  return rt.compose_chain(chain_name, stage_hfs, socket);
}

/// Load a partial reconfiguration bitstream explicitly.
inline runtime::AccHandle DHL_load_pr(runtime::DhlRuntime& rt,
                                      const std::string& hf_name,
                                      int fpga_id) {
  return rt.load_pr(hf_name, fpga_id);
}

/// Ensure a hardware function occupies at least `n` PR regions (replicas
/// may land on other FPGAs); the runtime's dispatch policy then spreads
/// batches across them.  Returns the resulting replica count.
inline std::size_t DHL_replicate(runtime::DhlRuntime& rt,
                                 const std::string& hf_name, std::size_t n) {
  return rt.replicate(hf_name, n);
}

/// Configure the parameters of the desired accelerator module.
inline void DHL_acc_configure(runtime::DhlRuntime& rt,
                              const runtime::AccHandle& handle,
                              std::span<const std::uint8_t> config) {
  rt.acc_configure(handle, config);
}

/// Get the shared input buffer queue for this NF's NUMA node (read-only;
/// DHL_send_packets is the only way in).
inline const netio::MbufRing* DHL_get_shared_IBQ(
    const runtime::DhlRuntime& rt, netio::NfId nf_id) {
  return &rt.get_shared_ibq(nf_id);
}

/// Get this NF's private output buffer queue.
inline netio::MbufRing* DHL_get_private_OBQ(runtime::DhlRuntime& rt,
                                            netio::NfId nf_id) {
  return &rt.get_private_obq(nf_id);
}

/// Send acc_id-tagged packets to the FPGA on behalf of NF `nf_id`: admits
/// the longest prefix under the NF's tenant outstanding-bytes quota with
/// counted rejections (refused packets stay owned by the caller) and stamps
/// nf_id into every admitted packet.  Default-tenant NFs are unlimited.
inline std::size_t DHL_send_packets(runtime::DhlRuntime& rt,
                                    netio::NfId nf_id, netio::Mbuf** pkts,
                                    std::size_t n) {
  return rt.send_packets(nf_id, pkts, n);
}

/// Get processed data back from the FPGA.
inline std::size_t DHL_receive_packets(netio::MbufRing& obq,
                                       netio::Mbuf** pkts, std::size_t n) {
  return runtime::DhlRuntime::receive_packets(obq, pkts, n);
}

/// Register a software implementation of `hf_name` for this NF, used by
/// the runtime when every replica of the hardware function is quarantined
/// (DESIGN.md section 3.3).  The callback receives each tagged packet and
/// must leave payload bytes and accel_result exactly as the accelerator
/// path would have; served packets arrive on the NF's private OBQ as usual
/// and are counted under dhl.fallback.pkts.
inline void DHL_register_fallback(runtime::DhlRuntime& rt, netio::NfId nf_id,
                                  const std::string& hf_name,
                                  runtime::FallbackFn fn) {
  rt.register_fallback(nf_id, hf_name, std::move(fn));
}

/// Batched register_fallback: the callback receives every packet of a
/// failed same-NF batch run in one call -- the shape the vectorized CPU
/// kernels want (multi-lane Aho-Corasick, pipelined AES-CTR; DESIGN.md
/// section 3.5).  Per-packet contract is identical to DHL_register_fallback;
/// either form replaces an earlier registration for the same (nf, hf).
inline void DHL_register_fallback_batch(runtime::DhlRuntime& rt,
                                        netio::NfId nf_id,
                                        const std::string& hf_name,
                                        runtime::FallbackBatchFn fn) {
  rt.register_fallback_batch(nf_id, hf_name, std::move(fn));
}

}  // namespace dhl
