#pragma once

// Packer: the TX half of the transfer layer (paper IV-A3).
//
// One poll loop per NUMA socket: dequeue the shared IBQ, group packets by
// their tagged acc_id into open DMA batches, flush on fill or timeout, and
// let the DispatchPolicy pick which replica of the hardware function
// receives each flushed batch.  Also owns the adaptive-batching EWMA of
// the per-socket arrival rate (paper VI-2's proposed policy).

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "dhl/fpga/batch.hpp"
#include "dhl/fpga/fault_hook.hpp"
#include "dhl/runtime/batch_pool.hpp"
#include "dhl/runtime/dispatch_policy.hpp"
#include "dhl/runtime/fault.hpp"
#include "dhl/runtime/hw_function_table.hpp"
#include "dhl/runtime/ledger.hpp"
#include "dhl/runtime/runtime_metrics.hpp"
#include "dhl/runtime/tenant.hpp"
#include "dhl/runtime/types.hpp"
#include "dhl/sim/lcore.hpp"
#include "dhl/sim/simulator.hpp"

namespace dhl::runtime {

class Packer {
 public:
  /// `policy` picks the replica at flush time; `fallback` serves packets
  /// when no replica of a hardware function is dispatchable.  Both are
  /// owned by the facade and outlive the Packer's poll loops.
  Packer(sim::Simulator& simulator, const RuntimeConfig& config,
         telemetry::Telemetry& telemetry, RuntimeMetrics& metrics,
         HwFunctionTable& table, BatchPoolSet& pools, TenantRegistry& tenants,
         DispatchPolicy& policy, FallbackRouter& fallback);

  Packer(const Packer&) = delete;
  Packer& operator=(const Packer&) = delete;

  /// Swap the replica-selection policy (DhlRuntime::set_dispatch_policy).
  void set_dispatch_policy(DispatchPolicy& policy) { policy_ = &policy; }

  /// Fault hook sampled at the fpga.device site when a flush picks a
  /// replica (null = perfect devices).  Owned by the facade.
  void set_fault_hook(fpga::FaultHook* hook) { fault_ = hook; }

  /// The batch-size cap currently in effect for `socket` -- max_batch_bytes,
  /// or the adaptive EWMA-driven cap when adaptive batching is on.  Exposed
  /// for tests of the adaptive policy.
  std::uint32_t effective_batch_cap(int socket) const {
    return batch_cap(sockets_[static_cast<std::size_t>(socket)]);
  }

  /// The shared per-NUMA-node input buffer queue (paper IV-A4), read-only:
  /// packets enter it only through DhlRuntime::send_packets' admission.
  const netio::MbufRing& ibq(int socket) const {
    return *sockets_[static_cast<std::size_t>(socket)].ibq;
  }

  /// One TX poll iteration for `socket` (runs on that socket's TX lcore).
  /// An idle poll parks the lcore until DhlRuntime::send_packets wakes it
  /// or, at the latest, until the oldest open batch's timeout (wake_at);
  /// with adaptive batching the lcore spins.
  sim::PollResult poll(int socket);

 private:
  /// Tenant admission (DhlRuntime::send_packets) is the only producer.
  friend class DhlRuntime;
  netio::MbufRing& admission_ibq(int socket) {
    return *sockets_[static_cast<std::size_t>(socket)].ibq;
  }

  struct OpenBatch {
    fpga::DmaBatchPtr batch;
    Picos opened_at = 0;
  };

  /// Open-batch slot key: (tenant << 8) | acc_id.  Keying by tenant as
  /// well as acc_id keeps tenants out of each other's batches, so a batch
  /// is always chargeable to exactly one tenant's budget.
  using OpenKey = std::uint16_t;
  static OpenKey open_key(TenantId tenant, netio::AccId acc) {
    return static_cast<OpenKey>((static_cast<OpenKey>(tenant) << 8) | acc);
  }

  struct SocketState {
    std::unique_ptr<netio::MbufRing> ibq;
    /// Dense (tenant, acc_id) -> open-batch slot array, mirroring the
    /// control plane's O(1) `entry_for` (PR 2): the per-packet std::map
    /// lookup/rebalance is gone from the hot loop.  Sized
    /// kMaxTenants * 256 in the constructor.
    std::vector<OpenBatch> open;
    /// Keys whose slot holds a non-empty open batch; the timeout sweep
    /// walks this instead of all slots.
    std::vector<OpenKey> active;
    /// Reusable dequeue buffer -- sized once to ibq_burst so the hot loop
    /// never heap-allocates.
    std::vector<netio::Mbuf*> scratch;
    // Adaptive batching: EWMA of the IBQ arrival byte rate.
    double ewma_bytes_per_sec = 0;
    Picos last_tx_poll = 0;
    telemetry::Gauge* ibq_depth = nullptr;
    std::string tx_track;
  };

  enum class FlushReason : std::uint8_t { kFull, kTimeout };

  using PendingSubmits =
      std::vector<std::pair<fpga::FpgaDevice*, fpga::DmaBatchPtr>>;

  /// Current batch cap for `state` (fixed, or adaptive per VI-2).
  std::uint32_t batch_cap(const SocketState& state) const;
  double flush_batch(int socket, netio::AccId acc_id, OpenBatch&& open,
                     PendingSubmits& pending, FlushReason reason,
                     TenantId tenant);
  /// Replica receiving this flush: the policy's pick among the
  /// *dispatchable* replicas of the tagged entry's hardware function
  /// (healthy/probation first, degraded as a last resort, quarantined
  /// never).  Null when the whole function is quarantined.
  HwFunctionEntry* choose_replica(HwFunctionEntry* primary, int socket);
  /// Drop a flushed batch whose hardware function vanished mid-open
  /// (unload raced the timeout flush): release the parked mbufs.
  void drop_batch(fpga::DmaBatchPtr batch);
  /// Bind `batch` to `replica`'s board and launch it there: retag its
  /// records to the replica's acc_id, stamp whether its transfers pay the
  /// remote-NUMA penalty, then RuntimeMetrics::launch.  Shared by the
  /// flush and the redirect.
  void bind(fpga::DmaBatch& batch, HwFunctionEntry& replica, TenantId tenant);
  /// Ring the doorbell, retrying with bounded exponential backoff on the
  /// virtual clock when the submit times out (dma.submit faults).  After
  /// the retry budget: land the batch as a failure, try one redirect to
  /// another dispatchable replica, else fall back / drop per packet.
  void submit_with_retry(fpga::FpgaDevice* dev, fpga::DmaBatchPtr batch,
                         std::uint32_t attempt);
  /// Bottom of the ladder for a batch with no dispatchable replica: each
  /// parked packet goes through the registered software fallback, or is
  /// dropped (dhl.runtime.submit_drop_pkts) when none is registered.
  void fallback_or_drop(fpga::DmaBatchPtr batch, const std::string& hf_name);

  sim::Simulator& sim_;
  const RuntimeConfig& config_;
  telemetry::Telemetry& telemetry_;
  RuntimeMetrics& metrics_;
  HwFunctionTable& table_;
  BatchPoolSet& pools_;
  TenantRegistry& tenants_;
  DispatchPolicy* policy_;
  FallbackRouter& fallback_;
  fpga::FaultHook* fault_ = nullptr;
  std::vector<SocketState> sockets_;
  /// Flush-time candidate list, reused across flushes (no hot-path alloc).
  std::vector<HwFunctionEntry*> candidates_;
};

}  // namespace dhl::runtime
