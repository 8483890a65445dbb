#pragma once

// The DHL Runtime -- the paper's core contribution (sections III-C, IV).
//
// DhlRuntime is a thin facade over four cohesive components:
//
//   Control plane: HwFunctionTable (hw_function_table.hpp) maintains the
//   hardware function table as (hf_name) -> replica sets -- each replica
//   one PR region on one FPGA -- loads PR bitstreams from the accelerator
//   module database on demand, and resolves acc_ids in O(1) through a
//   dense array.  replicate() lets one hot hardware function occupy
//   several regions/boards (hXDP-style schedulable execution slots).
//
//   Data plane: one shared multi-producer single-consumer input buffer
//   queue (IBQ) per NUMA node and one private single-producer
//   single-consumer output buffer queue (OBQ) per NF (paper IV-A4).  Two
//   poll-mode lcores per active socket implement the transfer layer: the
//   TX core runs the Packer (packer.hpp: dequeue the shared IBQ, group by
//   acc_id, batch up to 6 KB, pick a replica via the DispatchPolicy,
//   submit DMA) and the RX core runs the Distributor (distributor.hpp:
//   decapsulate returned batches, restore payloads into the parked mbufs,
//   route to private OBQs by nf_id).
//
//   DispatchPolicy (dispatch_policy.hpp): replica selection per flush --
//   NUMA-locality-first (default), round-robin, least-outstanding-bytes.
//
// Data isolation (paper IV-B): routing on the return path uses the nf_id
// from the wire-format record header, never host-side state, so a test can
// corrupt the tag and watch isolation machinery catch it.

#include <memory>
#include <string>
#include <vector>

#include "dhl/fpga/batch.hpp"
#include "dhl/fpga/bitstream.hpp"
#include "dhl/fpga/device.hpp"
#include "dhl/netio/mbuf.hpp"
#include "dhl/netio/ring.hpp"
#include "dhl/runtime/batch_pool.hpp"
#include "dhl/runtime/dispatch_policy.hpp"
#include "dhl/runtime/distributor.hpp"
#include "dhl/runtime/fault.hpp"
#include "dhl/runtime/hw_function_table.hpp"
#include "dhl/runtime/ledger.hpp"
#include "dhl/runtime/packer.hpp"
#include "dhl/runtime/runtime_metrics.hpp"
#include "dhl/runtime/tenant.hpp"
#include "dhl/runtime/types.hpp"
#include "dhl/sim/lcore.hpp"
#include "dhl/sim/simulator.hpp"
#include "dhl/sim/timing_params.hpp"
#include "dhl/telemetry/telemetry.hpp"

namespace dhl::runtime {

class DhlRuntime {
 public:
  DhlRuntime(sim::Simulator& simulator, RuntimeConfig config,
             fpga::BitstreamDatabase database,
             std::vector<fpga::FpgaDevice*> fpgas);
  ~DhlRuntime();

  DhlRuntime(const DhlRuntime&) = delete;
  DhlRuntime& operator=(const DhlRuntime&) = delete;

  // --- control plane (paper Table II) ---------------------------------------

  /// DHL_register(): register an NF; returns its nf_id and creates its
  /// private OBQ.  The two-argument form binds the NF to the default
  /// tenant (unlimited quota) -- the pre-daemon behavior.
  netio::NfId register_nf(const std::string& name, int socket);
  netio::NfId register_nf(const std::string& name, int socket,
                          TenantId tenant);

  /// Create a tenant with the given quotas; returns its id, or
  /// kInvalidTenant when the name is taken / the registry is full.
  TenantId register_tenant(const std::string& name, const TenantQuota& quota);
  TenantRegistry& tenants() { return tenants_; }
  const TenantRegistry& tenants() const { return tenants_; }

  /// DHL_search_by_name(): look up a hardware function for `socket`.  On a
  /// table miss, searches the accelerator module database and starts a PR
  /// load (paper IV-C); the returned handle becomes usable once
  /// acc_ready() is true.  Returns an invalid handle when the function
  /// exists nowhere or no FPGA can host it.
  AccHandle search_by_name(const std::string& hf_name, int socket);

  /// True once the PR load behind `handle` has completed.
  bool acc_ready(const AccHandle& handle) const;

  /// DHL_compose_chain(): fuse an ordered list of database hardware
  /// functions ("compression" -> "aes256-ctr", ...) into one dispatchable
  /// chain named `chain_name`, so a batch traverses all stages inside the
  /// fabric in a single PCIe round trip.  Output bytes are bit-identical
  /// to per-stage round trips; the record's result word is the LAST
  /// stage's.  Returns the chain's handle (same lifecycle as
  /// search_by_name) or an invalid handle when a stage is unknown or no
  /// FPGA can host the fused footprint.
  AccHandle compose_chain(const std::string& chain_name,
                          const std::vector<std::string>& stage_hfs,
                          int socket);

  /// DHL_load_pr(): explicitly program a bitstream from the database into
  /// `fpga_id`.  Returns the handle (not yet ready) or an invalid handle.
  AccHandle load_pr(const std::string& hf_name, int fpga_id);

  /// Ensure `hf_name` is loaded on at least `n` PR regions (replicas may
  /// land on other FPGAs); the DispatchPolicy then spreads batches across
  /// them.  Returns the resulting replica count.
  std::size_t replicate(const std::string& hf_name, std::size_t n);

  /// DHL_acc_configure(): write a module-specific configuration blob to
  /// every replica of the handle's hardware function.
  void acc_configure(const AccHandle& handle,
                     std::span<const std::uint8_t> config);

  /// Unload a hardware function: removes all its replicas and frees their
  /// reconfigurable parts for the next PR (paper IV-C's "changeable NFV
  /// environment").  Packets still tagged with the old acc_id come back
  /// flagged as error records.  Returns the number of replicas removed.
  std::size_t unload_function(const std::string& hf_name);

  /// DHL_get_shared_IBQ(): the calling NF's per-NUMA-node shared IBQ,
  /// read-only -- packets enter it only through send_packets().
  const netio::MbufRing& get_shared_ibq(netio::NfId nf_id) const;

  /// DHL_get_private_OBQ(): the NF's private OBQ.
  netio::MbufRing& get_private_obq(netio::NfId nf_id);

  /// Register the lcore that drains the NF's OBQ, so a parked one is woken
  /// by each delivery (null unregisters; the lcore must outlive its
  /// registration).
  void set_obq_consumer(netio::NfId nf_id, sim::Lcore* core);

  // --- data plane (paper Table II; used from NF worker loops) ----------------

  /// DHL_send_packets(): the only way into an IBQ, so it wakes the
  /// socket's TX core when the ring took a packet.  Admits the longest
  /// prefix of the burst that fits the NF's tenant under its
  /// outstanding-bytes cap, stamps `nf_id` into each admitted packet (so
  /// the Packer debits the tenant admission charged), and enqueues it onto
  /// the NF's IBQ.  Packets the ring takes count as admitted
  /// (dhl.tenant.admitted_pkts); rejections (quota or ring-full) are
  /// counted against the tenant (dhl.tenant.rejected_pkts) and the refused
  /// packets stay owned by the caller -- never silently dropped.  Returns
  /// the number accepted.
  std::size_t send_packets(netio::NfId nf_id, netio::Mbuf** pkts,
                           std::size_t n);

  /// DHL_receive_packets(): dequeue post-processed packets from an OBQ.
  static std::size_t receive_packets(netio::MbufRing& obq, netio::Mbuf** pkts,
                                     std::size_t n) {
    return obq.dequeue_burst({pkts, n});
  }

  // --- lifecycle --------------------------------------------------------------

  /// Start the transfer-layer lcores (one TX + one RX pair per socket; the
  /// paper dedicates "one for sending data to FPGA ... the other for
  /// receiving", V-C).
  void start();
  void stop();

  // --- introspection -----------------------------------------------------------

  /// Counters live in the metrics registry (dhl.runtime.* and friends).
  telemetry::Telemetry& telemetry() { return *telemetry_; }
  const telemetry::Telemetry& telemetry() const { return *telemetry_; }
  const telemetry::TelemetryPtr& telemetry_ptr() const { return telemetry_; }
  /// The hardware function table; snapshot() gives one row per replica in
  /// load order.
  const HwFunctionTable& function_table() const { return table_; }
  HwFunctionTable& function_table() { return table_; }
  const fpga::BitstreamDatabase& module_database() const {
    return table_.database();
  }
  /// Packets dequeued from an IBQ and not yet delivered to an OBQ or
  /// dropped (RuntimeMetrics::in_flight).
  std::uint64_t in_flight() const { return metrics_.in_flight; }
  /// Registered NF count.
  std::size_t nf_count() const { return nfs_.size(); }
  std::vector<sim::Lcore*> transfer_cores();

  /// Active replica-selection policy (configurable via
  /// RuntimeConfig::dispatch_policy, replaceable at runtime for tests).
  DispatchPolicy& dispatch_policy() { return *policy_; }
  void set_dispatch_policy(std::unique_ptr<DispatchPolicy> policy);

  // --- failure model (DESIGN.md section 3.3) ---------------------------------

  /// Wire `injector` into every device's DMA engine / ICAP path and the
  /// Packer's dispatch site.  Null restores perfect hardware.  The injector
  /// is owned by the caller and must outlive the runtime (tests construct
  /// it next to the simulator).
  void set_fault_injector(FaultInjector* injector);

  /// DHL_register_fallback(): software implementation of `hf_name` for
  /// `nf_id`, used when every replica of the function is quarantined.  The
  /// callback must leave payload and accel_result exactly as the
  /// accelerator would have.
  void register_fallback(netio::NfId nf_id, const std::string& hf_name,
                         FallbackFn fn);
  /// DHL_register_fallback_batch(): batched form -- the callback receives
  /// every packet of a failed same-NF batch run at once, so vectorized
  /// software paths (multi-lane AC, pipelined AES-CTR) keep their shape.
  void register_fallback_batch(netio::NfId nf_id, const std::string& hf_name,
                               FallbackBatchFn fn);
  FallbackRouter& fallback_router() { return fallback_; }

  /// Packet-lifecycle conservation ledger (DESIGN.md section 3.4).  A
  /// no-op stub in DHL_LEDGER=0 builds.  Tests call ledger().audit() at
  /// teardown and assert clean().
  LifecycleLedger& ledger() { return ledger_; }
  const LifecycleLedger& ledger() const { return ledger_; }

  /// Per-socket DmaBatch recycling pools.
  BatchPoolSet& batch_pools() { return pools_; }
  /// Transfer-layer components, exposed for benches/tests that drive the
  /// poll loops directly instead of through start()'s lcores.
  Packer& packer() { return packer_; }
  Distributor& distributor() { return distributor_; }

 private:
  struct CorePair {
    std::unique_ptr<sim::Lcore> tx;
    std::unique_ptr<sim::Lcore> rx;
  };

  /// Socket whose shared IBQ serves `nf_id`.
  int ibq_socket(netio::NfId nf_id) const;

  sim::Simulator& sim_;
  RuntimeConfig config_;
  telemetry::TelemetryPtr telemetry_;
  /// Declared before (destroyed after) the components whose teardown can
  /// still release tracked mbufs through the observer seam.
  LifecycleLedger ledger_;
  /// Declared before the components that borrow it (RuntimeMetrics,
  /// Packer), destroyed after them.
  TenantRegistry tenants_;
  /// Declared before RuntimeMetrics, whose land() credits and blames its
  /// replicas.
  HwFunctionTable table_;
  /// Owns the drop, delivery and batch-flight seams, which book into
  /// tenants_, ledger_ and table_.
  RuntimeMetrics metrics_;
  std::unique_ptr<DispatchPolicy> policy_;
  std::vector<NfInfo> nfs_;
  /// Declared after nfs_/metrics_ (it borrows both), before the Packer
  /// that consults it.
  FallbackRouter fallback_;
  /// Declared before the Packer/Distributor that borrow it, destroyed
  /// after them: in-flight batches recycled at teardown find a live pool.
  BatchPoolSet pools_;
  Packer packer_;
  Distributor distributor_;
  std::vector<CorePair> cores_;
  bool started_ = false;
};

}  // namespace dhl::runtime
