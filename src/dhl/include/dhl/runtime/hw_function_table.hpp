#pragma once

// HwFunctionTable: the runtime's control plane (paper III-C, IV-C).
//
// Owns the hardware function table -- with replication, a map
// (hf_name) -> replica set, where each replica is one PR region on one
// FPGA -- plus the accelerator module database and PR load orchestration.
// The data plane resolves acc_ids through a dense array indexed by acc_id,
// so the per-packet lookup in the Packer/Distributor is O(1).

#include <array>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dhl/fpga/bitstream.hpp"
#include "dhl/fpga/device.hpp"
#include "dhl/runtime/types.hpp"
#include "dhl/sim/simulator.hpp"

namespace dhl::runtime {

/// All replicas of one hardware function, in load order.  `cursor` is
/// policy scratch (round-robin state) that survives across flushes.
struct ReplicaSet {
  std::string hf_name;
  std::vector<HwFunctionEntry*> replicas;
  std::uint32_t cursor = 0;
};

class HwFunctionTable {
 public:
  HwFunctionTable(sim::Simulator& simulator, fpga::BitstreamDatabase database,
                  std::vector<fpga::FpgaDevice*> fpgas,
                  telemetry::Telemetry& telemetry);

  HwFunctionTable(const HwFunctionTable&) = delete;
  HwFunctionTable& operator=(const HwFunctionTable&) = delete;

  /// DHL_search_by_name(): find or load a hardware function for `socket`.
  /// Placement order (paper IV-A2's NUMA awareness applied to the control
  /// plane): existing entry for (hf_name, socket); FPGA on the caller's
  /// socket; existing entry on any socket; any FPGA with space.
  AccHandle search_by_name(const std::string& hf_name, int socket);

  /// DHL_load_pr(): explicitly program a database bitstream into `fpga_id`.
  AccHandle load_pr(const std::string& hf_name, int fpga_id);

  /// DHL_compose_chain(): fuse an ordered list of database hardware
  /// functions into one dispatchable chain (DESIGN.md 3.7).  Registers a
  /// synthetic bitstream named `chain_name` (size and resources are the
  /// sums of the constituents -- fusing buys round trips, not area) whose
  /// module runs the stages back to back inside the fabric, then loads it
  /// like any other hardware function via search_by_name().  Per-stage
  /// configuration retained from earlier acc_configure() calls is baked
  /// into the chain's replayed config, so replicas come up configured;
  /// later reconfiguration goes through the chain's own acc_id with an
  /// encode_chain_config() framed blob.  Invalid handle when a stage is
  /// not in the database or no FPGA can host the fused footprint.
  AccHandle compose_chain(const std::string& chain_name,
                          const std::vector<std::string>& stage_hfs,
                          int socket);

  /// Ensure `hf_name` has at least `n` replicas (ready or loading), adding
  /// regions on the devices currently hosting the fewest replicas of it.
  /// Returns the resulting replica count (may be < n when out of space).
  std::size_t replicate(const std::string& hf_name, std::size_t n);

  /// DHL_acc_configure(): write a module-specific configuration blob to
  /// every replica of `acc_id`'s hardware function.  The blob is retained
  /// and replayed onto replicas loaded later (replicate), so all replicas
  /// stay interchangeable.
  void configure(netio::AccId acc_id, std::span<const std::uint8_t> config);

  /// Remove every replica of `hf_name`; frees ready regions immediately,
  /// regions still mid-ICAP are freed by the PR-done callback.  Returns
  /// the number of replicas removed.
  std::size_t unload_function(const std::string& hf_name);

  /// O(1): the replica behind `acc_id`, or nullptr.
  HwFunctionEntry* entry_for(netio::AccId acc_id) {
    return by_acc_[acc_id];
  }
  const HwFunctionEntry* entry_for(netio::AccId acc_id) const {
    return by_acc_[acc_id];
  }

  /// Generation-checked lookup: the replica behind `acc_id` only if it is
  /// still the generation `gen` (stamped into the DmaBatch at flush time).
  /// Null when the slot was recycled by an unload/reload while the batch
  /// was in flight -- the caller must not blame or credit the new owner.
  HwFunctionEntry* entry_for(netio::AccId acc_id, std::uint32_t gen) {
    HwFunctionEntry* e = by_acc_[acc_id];
    return e != nullptr && e->acc_gen == gen ? e : nullptr;
  }
  const HwFunctionEntry* entry_for(netio::AccId acc_id,
                                   std::uint32_t gen) const {
    const HwFunctionEntry* e = by_acc_[acc_id];
    return e != nullptr && e->acc_gen == gen ? e : nullptr;
  }

  /// Current generation of an acc_id slot (0 = never allocated).
  std::uint32_t acc_generation(netio::AccId acc_id) const {
    return acc_gen_[acc_id];
  }

  bool acc_ready(netio::AccId acc_id) const {
    const HwFunctionEntry* e = entry_for(acc_id);
    return e != nullptr && e->ready;
  }

  /// Replica set for `hf_name`, or nullptr when nothing is loaded.
  ReplicaSet* replica_set(const std::string& hf_name);
  const ReplicaSet* replica_set(const std::string& hf_name) const;

  // --- replica health (degradation ladder, DESIGN.md section 3.3) -----------

  /// Thresholds from RuntimeParams; the runtime calls this once at startup.
  void set_health_params(std::uint32_t quarantine_failures,
                         Picos quarantine_period) {
    quarantine_failures_ = quarantine_failures;
    quarantine_period_ = quarantine_period;
  }

  /// A batch came back intact: reset the failure streak and re-heal.
  void note_replica_success(HwFunctionEntry* e);
  /// A retry budget was exhausted or a probation batch failed: degrade, or
  /// quarantine when the streak crosses the threshold (probation failures
  /// re-quarantine immediately).
  void note_replica_failure(HwFunctionEntry* e);
  /// Hard failure (device fault): straight to quarantine.
  void quarantine_replica(HwFunctionEntry* e);

  /// May the Packer send to this replica right now?  Promotes a replica
  /// whose quarantine period has elapsed to probation as a side effect
  /// (lazy: checked at dispatch time, no timer events needed).
  bool dispatchable(HwFunctionEntry* e);
  /// Any replica of `hf_name` dispatchable?  False means the function is
  /// fully quarantined and only the software fallback can serve it.
  bool any_dispatchable(const std::string& hf_name);

  fpga::FpgaDevice* device(int fpga_id) const;
  const std::vector<fpga::FpgaDevice*>& devices() const { return fpgas_; }
  const fpga::BitstreamDatabase& database() const { return database_; }

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Value snapshot of the table, one row per replica, in load order.
  std::vector<HwFunctionEntry> snapshot() const;

 private:
  AccHandle start_load(const fpga::PartialBitstream& bitstream,
                       fpga::FpgaDevice& dev, int socket_for_entry);
  /// Move `e` to `h`, keeping the dhl.replica.state gauge in sync.
  void set_health(HwFunctionEntry* e, ReplicaHealth h);
  /// Next free acc_id slot (slots recycle after unload -- long-running PR
  /// churn must not exhaust the 8-bit space).
  netio::AccId alloc_acc_id() const;
  void erase_entry(HwFunctionEntry* entry);

  sim::Simulator& sim_;
  fpga::BitstreamDatabase database_;
  std::vector<fpga::FpgaDevice*> fpgas_;
  telemetry::Telemetry& telemetry_;
  /// Replicas in load order; pointers are stable (unique_ptr storage).
  std::vector<std::unique_ptr<HwFunctionEntry>> entries_;
  /// Dense acc_id -> replica index used by the per-packet hot path.
  std::array<HwFunctionEntry*, 256> by_acc_{};
  /// Per-slot generation counter, bumped on every load into the slot.
  std::array<std::uint32_t, 256> acc_gen_{};
  std::map<std::string, ReplicaSet> sets_;
  /// Last configuration blob per hardware function, replayed on replicas
  /// loaded after acc_configure() ran.
  std::map<std::string, std::vector<std::uint8_t>> configs_;
  mutable netio::AccId next_acc_id_ = 0;
  // Degradation-ladder thresholds (defaults match sim::RuntimeParams).
  std::uint32_t quarantine_failures_ = 3;
  Picos quarantine_period_ = microseconds(500);
};

}  // namespace dhl::runtime
