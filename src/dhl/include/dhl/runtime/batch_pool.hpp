#pragma once

// Per-socket DmaBatch recycling pool.
//
// The seed runtime paid a `make_unique<DmaBatch>` plus a ~6 KB vector
// reservation for every batch it opened, and freed both when the
// Distributor finished decapsulating.  The paper's design (IV-A2) keeps a
// fixed hugepage-backed buffer ring per socket instead; this pool models
// that: the Distributor hands drained batches back, the Packer re-opens
// them with their buffer capacity intact, and the hot path stops touching
// the allocator entirely once warmed up.
//
// Lifecycle:
//   Packer --acquire()--> open batch --flush--> DMA --> FPGA --> DMA -->
//   Distributor --recycle()--> free list --> Packer ...
//
// Batches are tagged with their home socket (`DmaBatch::pool_socket`);
// `BatchPoolSet::recycle` routes each batch back to the pool it came from
// regardless of which socket's Distributor drained it, so pools stay
// NUMA-local and never mix.  Untagged batches (built by tests or after a
// pool teardown) are simply deleted.  Exhaustion falls back to a heap
// allocation (counted as a miss) -- the pool bounds memory, not progress.

#include <cstdint>
#include <vector>

#include "dhl/fpga/batch.hpp"
#include "dhl/telemetry/telemetry.hpp"

namespace dhl::runtime {

/// Per-socket free-list capacity of the runtime's pools.  Batches in
/// flight beyond this fall back to the allocator (dhl.pool.misses).
inline constexpr std::uint32_t kBatchPoolCapacity = 64;

class BatchPool {
 public:
  /// `reserve_bytes` is the buffer capacity given to every pool-owned
  /// batch (max batch cap + one record header of slack, mirroring the
  /// Packer's historical reservation).
  BatchPool(int socket, std::uint32_t capacity, std::size_t reserve_bytes,
            telemetry::Telemetry& telemetry);

  BatchPool(BatchPool&&) = default;

  /// Take a batch for `acc_id`: recycled when available (hit), freshly
  /// allocated otherwise (miss).  Never returns null.
  fpga::DmaBatchPtr acquire(netio::AccId acc_id);

  /// Return a drained batch to the free list.  The batch is reset (records
  /// cleared, capacity kept).  If the free list is full the batch is
  /// deleted (counted), bounding pool memory.
  void recycle(fpga::DmaBatchPtr batch);

  int socket() const { return socket_; }
  std::uint32_t capacity() const { return capacity_; }
  std::size_t available() const { return free_.size(); }

  std::uint64_t hits() const { return hits_->value(); }
  std::uint64_t misses() const { return misses_->value(); }

 private:
  int socket_;
  std::uint32_t capacity_;
  std::size_t reserve_bytes_;
  std::vector<fpga::DmaBatchPtr> free_;
  telemetry::Counter* hits_ = nullptr;    // dhl.pool.hits
  telemetry::Counter* misses_ = nullptr;  // dhl.pool.misses
  telemetry::Counter* drops_ = nullptr;   // dhl.pool.drops (free list full)
  telemetry::Gauge* available_ = nullptr;  // dhl.pool.available occupancy
};

/// One BatchPool per socket plus the cross-socket recycle router.
class BatchPoolSet {
 public:
  BatchPoolSet(int num_sockets, std::uint32_t capacity_per_socket,
               std::size_t reserve_bytes, telemetry::Telemetry& telemetry);

  /// Acquire from `socket`'s pool; the batch is tagged so recycle() can
  /// route it home.
  fpga::DmaBatchPtr acquire(int socket, netio::AccId acc_id);

  /// Route a drained batch back to its home pool.  Batches without a home
  /// (pool_socket < 0 or out of range: test-built, or from a differently
  /// sized config) are deleted normally.
  void recycle(fpga::DmaBatchPtr batch);

  BatchPool& pool(int socket) {
    return pools_[static_cast<std::size_t>(socket)];
  }
  int num_sockets() const { return static_cast<int>(pools_.size()); }

 private:
  std::vector<BatchPool> pools_;
};

}  // namespace dhl::runtime
