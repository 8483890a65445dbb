#pragma once

// Distributor: the RX half of the transfer layer (paper IV-B1).
//
// One poll loop per NUMA socket: drain the completion queue the DMA engines
// deliver into, decapsulate returned batches, restore payloads/results into
// the parked mbufs, and route each packet to its NF's private OBQ by the
// wire-format nf_id -- never host-side state, so a corrupted tag is caught
// by the isolation machinery instead of leaking across NFs.

#include <memory>
#include <string>
#include <vector>

#include "dhl/fpga/batch.hpp"
#include "dhl/runtime/batch_pool.hpp"
#include "dhl/runtime/ledger.hpp"
#include "dhl/runtime/runtime_metrics.hpp"
#include "dhl/runtime/types.hpp"
#include "dhl/sim/lcore.hpp"
#include "dhl/sim/simulator.hpp"

namespace dhl::runtime {

class Distributor {
 public:
  /// Batches the RX core drains per poll iteration.
  static constexpr std::uint32_t kRxBurst = 8;

  Distributor(sim::Simulator& simulator, const RuntimeConfig& config,
              telemetry::Telemetry& telemetry, RuntimeMetrics& metrics,
              std::vector<NfInfo>& nfs, BatchPoolSet& pools);

  Distributor(const Distributor&) = delete;
  Distributor& operator=(const Distributor&) = delete;

  /// DMA RX delivery hook: book the batch's dma_tx, fpga and dma_rx stages
  /// and its ledger marks from the DMA engine's seam stamps, then park it
  /// on `socket`'s completion queue until that socket's RX core drains it
  /// (which books the distributor stage).  Batches that fail the
  /// integrity gate (wire_corrupt, CRC mismatch, or structurally invalid
  /// wire bytes) are dropped here as a unit -- landed as a failure,
  /// parked mbufs released, dhl.batch.crc_drops counted -- so a corrupted
  /// transfer can never desynchronize records and mbufs downstream.
  /// A batch that reaches the queue wakes the socket's RX core
  /// (set_core()) if it parked.
  void enqueue_completion(int socket, fpga::DmaBatchPtr batch);

  /// The lcore running `socket`'s poll(), woken by enqueue_completion().
  void set_core(int socket, sim::Lcore* core) {
    sockets_[static_cast<std::size_t>(socket)].core = core;
  }

  /// One RX poll iteration for `socket` (runs on that socket's RX lcore).
  /// A poll that finds no completion parks the lcore.
  sim::PollResult poll(int socket);

  std::size_t completions_pending(int socket) const {
    return sockets_[static_cast<std::size_t>(socket)].pending();
  }

  /// Test hook: identities of the pooled delivery buffers currently parked
  /// on `socket`'s free list.  Pins the recycling behaviour -- steady-state
  /// polling must hand the *same* heap vector back, not allocate per event.
  std::vector<const void*> delivery_buffer_ids(int socket) const {
    std::vector<const void*> out;
    for (const auto& b :
         sockets_[static_cast<std::size_t>(socket)].free_buffers) {
      out.push_back(b.get());
    }
    return out;
  }

 private:
  /// A packet routed to an NF, delivered after the Distributor cycles
  /// spent on it have elapsed.
  struct Delivery {
    std::size_t nf;
    netio::Mbuf* m;
  };
  using DeliveryVec = std::vector<Delivery>;

  /// Initial completion-ring slots per socket.
  static constexpr std::size_t kCompletionRingSlots = 1024;

  struct SocketState {
    /// Completion ring: power-of-two slots, monotonic head/tail indices
    /// masked on access, so the DMA delivery hook and the RX poll loop
    /// touch preallocated slots only.  A delivery into a full ring doubles
    /// it in FIFO order: no completion is ever dropped.
    std::vector<fpga::DmaBatchPtr> ring =
        std::vector<fpga::DmaBatchPtr>(kCompletionRingSlots);
    std::uint64_t head = 0;
    std::uint64_t tail = 0;
    /// Recycled delivery buffers: the deferred-enqueue closures hand their
    /// vector back here, so steady-state polling never heap-allocates.
    std::vector<std::unique_ptr<DeliveryVec>> free_buffers;
    sim::Lcore* core = nullptr;
    telemetry::Gauge* completions_depth = nullptr;
    std::string rx_track;

    fpga::DmaBatchPtr& slot(std::uint64_t i) {
      return ring[i & (ring.size() - 1)];
    }
    std::size_t pending() const {
      return static_cast<std::size_t>(tail - head);
    }
  };

  std::unique_ptr<DeliveryVec> take_buffer(SocketState& state);

  /// Integrity gate: true when the batch's wire bytes are trustworthy --
  /// not flagged corrupt in flight, checksum matches (when crc_check is
  /// on), every record parses, the record count equals the parked-mbuf
  /// count, and no record claims more payload than its mbuf can hold.
  bool batch_intact(const fpga::DmaBatch& batch) const;
  /// Drop a batch that failed the gate: land it as a failure (the replica
  /// is blamed), drop the parked mbufs at the crc site, count, recycle.
  void drop_corrupt_batch(fpga::DmaBatchPtr batch);

  sim::Simulator& sim_;
  const RuntimeConfig& config_;
  telemetry::Telemetry& telemetry_;
  RuntimeMetrics& metrics_;
  std::vector<NfInfo>& nfs_;
  BatchPoolSet& pools_;
  std::vector<SocketState> sockets_;
};

}  // namespace dhl::runtime
