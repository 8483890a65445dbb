#pragma once

// Shared value types of the DHL Runtime's control and data planes.
//
// The runtime is decomposed into cohesive components (paper III-C / IV):
//
//   HwFunctionTable  -- control plane: (hf_name, socket) -> replica set,
//                       PR loads, O(1) acc_id lookup (hw_function_table.hpp)
//   Packer           -- TX data plane: IBQ dequeue, batching, EWMA
//                       (packer.hpp)
//   Distributor      -- RX data plane: completions, OBQ routing
//                       (distributor.hpp)
//   DispatchPolicy   -- replica selection per flush (dispatch_policy.hpp)
//   DhlRuntime       -- thin facade preserving the Table II API
//                       (runtime.hpp)
//
// This header holds the types those components exchange.

#include <memory>
#include <string>

#include "dhl/netio/mbuf.hpp"
#include "dhl/netio/ring.hpp"
#include "dhl/sim/lcore.hpp"
#include "dhl/sim/timing_params.hpp"
#include "dhl/telemetry/telemetry.hpp"

namespace dhl::fpga {
class FpgaDevice;
}  // namespace dhl::fpga

namespace dhl::runtime {

/// Handle to a loaded hardware function, returned by search_by_name().
struct AccHandle {
  netio::AccId acc_id = netio::kInvalidAccId;
  int fpga_id = -1;
  int socket_id = -1;
  bool valid() const { return acc_id != netio::kInvalidAccId; }
};

/// Degradation ladder of one replica (DESIGN.md section 3.3).  The Packer
/// prefers healthy/probation replicas, uses degraded ones only when
/// nothing better is dispatchable, and never sends to a quarantined one.
enum class ReplicaHealth : std::uint8_t {
  kHealthy = 0,
  /// Recent failures, below the quarantine threshold: dispatchable, but
  /// only as a last resort.  One success re-heals.
  kDegraded = 1,
  /// Too many consecutive failures: no traffic until the quarantine
  /// period elapses on the virtual clock.
  kQuarantined = 2,
  /// Quarantine served; re-admitted tentatively.  Success re-heals,
  /// failure re-quarantines immediately.
  kProbation = 3,
};

const char* to_string(ReplicaHealth health);

/// One row of the hardware function table (paper Figure 2).  With
/// replication, each row is one *replica*: one PR region on one FPGA.
/// Replicas of the same hardware function keep distinct acc_ids; the
/// Packer retags a batch when the dispatch policy redirects it.
struct HwFunctionEntry {
  std::string hf_name;
  int socket_id = 0;
  netio::AccId acc_id = netio::kInvalidAccId;
  /// Generation of the acc_id slot (1-based; 0 never occurs on a live
  /// entry).  acc_ids recycle after unload, so a batch in flight across an
  /// unload/reload can carry an acc_id that now names a *different*
  /// hardware function.  The Packer stamps the generation into each
  /// DmaBatch; entry_for(acc_id, gen) refuses the stale lookup instead of
  /// blaming or crediting the wrong replica.
  std::uint32_t acc_gen = 0;
  int fpga_id = -1;
  int region = -1;
  bool ready = false;  // PR completed
  /// Bytes flushed to this replica and not yet returned by the
  /// Distributor; the least-outstanding-bytes policy keys on this.
  std::uint64_t outstanding_bytes = 0;
  /// Device hosting the replica (cached so the hot path never scans).
  fpga::FpgaDevice* device = nullptr;
  // Per-replica dispatch accounting: dhl.runtime.replica_* with
  // {hf, fpga, region} labels.
  telemetry::Counter* dispatch_batches = nullptr;
  telemetry::Counter* dispatch_bytes = nullptr;
  /// Degradation-ladder state, owned by HwFunctionTable (note_replica_*).
  ReplicaHealth health = ReplicaHealth::kHealthy;
  std::uint32_t consecutive_failures = 0;
  /// Virtual time the replica entered quarantine (valid in kQuarantined).
  Picos quarantined_at = 0;
  /// dhl.replica.state with {hf, fpga, region}: current ladder rung as a
  /// gauge (0 healthy, 1 degraded, 2 quarantined, 3 probation).
  telemetry::Gauge* health_gauge = nullptr;
};

/// Replica-selection policies (see dispatch_policy.hpp).
enum class DispatchPolicyKind : std::uint8_t {
  /// Prefer replicas on the flushing socket's NUMA node; round-robin among
  /// them.  Falls back to all ready replicas when none is local.  This is
  /// the default and degenerates to the classic single-replica behaviour.
  kNumaLocal,
  /// Cycle through all ready replicas regardless of locality.
  kRoundRobin,
  /// Pick the replica with the fewest outstanding (in-flight) bytes.
  kLeastOutstandingBytes,
};

const char* to_string(DispatchPolicyKind kind);

struct RuntimeConfig {
  sim::TimingParams timing;
  int num_sockets = 2;
  std::uint32_t ibq_size = 8192;
  std::uint32_t obq_size = 8192;
  /// Packets the TX core dequeues from an IBQ per iteration.
  std::uint32_t ibq_burst = 64;
  /// Paper IV-A2: allocate DMA buffers/queues on the FPGA's NUMA node.
  /// When false, everything lives on socket 0 and transfers to FPGAs on
  /// other sockets pay the remote penalty (the Fig 4 "different NUMA node"
  /// series and our NUMA ablation).
  bool numa_aware = true;
  /// How the Packer picks a replica when a hardware function is loaded on
  /// several PR regions / FPGAs.
  DispatchPolicyKind dispatch_policy = DispatchPolicyKind::kNumaLocal;
  /// Verify the per-transfer CRC32C the DMA engine stamps over each
  /// batch's wire bytes before the Distributor decapsulates it.  A failed
  /// check drops the whole batch (counted: dhl.batch.crc_drops) instead of
  /// desynchronizing records and mbufs.  Off = trust the wire, keep only
  /// the structural parse checks (the pre-PR-4 behaviour).
  bool crc_check = true;
  /// Shared telemetry context; when null the runtime creates a private one.
  telemetry::TelemetryPtr telemetry;
};

/// One registered NF: identity plus its private OBQ (paper IV-A4).
struct NfInfo {
  std::string name;
  int socket = 0;
  /// Tenant the NF is bound to (0 = default tenant; see tenant.hpp).
  std::uint8_t tenant = 0;
  std::unique_ptr<netio::MbufRing> obq;
  /// The NF's lcore that drains `obq`, woken by each delivery
  /// (DhlRuntime::set_obq_consumer); null when unregistered.
  sim::Lcore* obq_consumer = nullptr;
  // Per-NF instruments (dhl.nf.* with {nf=name}).
  telemetry::Gauge* obq_depth = nullptr;
  telemetry::Counter* obq_drops = nullptr;
};

}  // namespace dhl::runtime
