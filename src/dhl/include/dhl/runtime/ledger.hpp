#pragma once

// LifecycleLedger: the packet-conservation audit trail (DESIGN.md 3.4).
//
// DHL's isolation claim (paper IV-B) is that packets from many NFs can
// share one IBQ, one DMA engine and per-NF OBQs without ever being lost,
// duplicated, or misrouted.  The ledger turns that claim into a checkable
// invariant: every mbuf the Packer dequeues is tracked through named
// stages,
//
//   nic.rx -> ibq -> packer.append | fallback -> dma.tx -> fpga ->
//   dma.rx -> distributor -> obq -> nf
//
// and must end its life in exactly one terminal -- delivered to an OBQ, or
// dropped at one of the DropSites (telemetry/drop_site.hpp) through the
// runtime's one drop seam, RuntimeMetrics::drop.  audit() reports anything
// else: leaks (tracked but never terminated), double terminals, premature
// releases (freed while the ledger still has the packet in flight), and
// terminal events for packets never tracked.  Per-tenant conservation is
// not the ledger's: TenantRegistry checks it from counters in every build.
//
// The ledger is compiled to no-ops when DHL_LEDGER=0 (the Release
// default): the class collapses to empty inline methods so every call
// site stays unconditional and free.  The build flag is the only switch:
// a ledger-compiled build always tracks.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "dhl/fpga/batch.hpp"
#include "dhl/netio/mbuf.hpp"
#include "dhl/netio/mbuf_observer.hpp"
#include "dhl/telemetry/drop_site.hpp"
#include "dhl/telemetry/telemetry.hpp"

#ifndef DHL_LEDGER
#define DHL_LEDGER 1
#endif

namespace dhl::runtime {

using telemetry::DropSite;

/// True when this build carries the ledger (tests skip audit-mutation
/// checks in ledger-off builds instead of vacuously passing).
inline constexpr bool kLedgerCompiled = DHL_LEDGER != 0;

/// Lifecycle stages, in pipeline order.  A packet may skip stages (the
/// fallback path never enters a batch) but never moves to a terminal
/// twice.
enum class LedgerStage : std::uint8_t {
  kNicRx,        // carried an RX timestamp when it entered the runtime
  kIbq,          // dequeued from a shared IBQ by the Packer
  kPackerAppend, // appended to an open DMA batch
  kFallback,     // served by a registered software fallback
  kDmaTx,        // submitted on a DMA TX channel
  kFpga,         // completed the host->FPGA transfer
  kDmaRx,        // completed the FPGA->host transfer
  kDistributor,  // decapsulated by the Distributor
  kObq,          // delivered to its NF's private OBQ (terminal)
  kNf,           // released by the NF after delivery (end of life)
  kCount,
};

const char* to_string(LedgerStage stage);

/// Result of LifecycleLedger::audit().  `clean()` is the invariant every
/// well-behaved run must satisfy after draining: no packet still open, no
/// double terminals, no premature releases, no terminal events for
/// untracked packets.
struct LedgerAudit {
  struct Leak {
    const netio::Mbuf* mbuf = nullptr;
    LedgerStage stage = LedgerStage::kIbq;
  };

  std::uint64_t tracked = 0;    // lifecycles opened (on_ingress)
  std::uint64_t delivered = 0;  // terminal: delivered to an OBQ
  std::uint64_t dropped[telemetry::kDropSites.size()] = {};  // by DropSite
  std::uint64_t live = 0;  // still open (in flight if mid-run, leaks after)
  std::uint64_t double_track = 0;      // on_ingress on a still-open packet
  std::uint64_t double_terminal = 0;   // second terminal for one lifecycle
  std::uint64_t premature_release = 0; // freed while the ledger had it open
  std::uint64_t orphan_terminal = 0;   // terminal for a never-tracked packet
  /// Packets entering each stage (conservation ledger per stage).
  std::uint64_t stage_entries[static_cast<std::size_t>(LedgerStage::kCount)] =
      {};
  /// Sample of still-open records (capped; `live` is the true count).
  std::vector<Leak> leaks;

  std::uint64_t dropped_total() const;
  bool clean() const;
  /// Multi-line human-readable report for test failure messages.
  std::string to_string() const;
};

#if DHL_LEDGER

class LifecycleLedger final : public netio::MbufLifecycleObserver {
 public:
  /// Installs the ledger as the process-wide mbuf release observer (single
  /// slot: a second concurrent runtime keeps its ledger but loses
  /// premature-release detection, with a warning).
  explicit LifecycleLedger(telemetry::Telemetry& telemetry);
  ~LifecycleLedger() override;

  LifecycleLedger(const LifecycleLedger&) = delete;
  LifecycleLedger& operator=(const LifecycleLedger&) = delete;

  /// A packet entered the runtime (Packer IBQ dequeue).  Opens a
  /// lifecycle; counts nic.rx when the mbuf carries an RX timestamp.
  /// Re-tracking a packet whose previous lifecycle is closed is legal
  /// (chained NFs re-send delivered packets) and starts a fresh lifecycle.
  void on_ingress(const netio::Mbuf* m);
  /// Stage transition (idempotent: re-entering the current stage, e.g. a
  /// DMA submit retry, is a no-op).  Ignored for untracked packets.
  void on_stage(const netio::Mbuf* m, LedgerStage stage);
  /// Stage transition for every packet parked in `batch`.
  void on_batch_stage(const fpga::DmaBatch& batch, LedgerStage stage);
  /// Terminal: delivered to its NF's private OBQ.
  void on_delivered(const netio::Mbuf* m);
  /// Terminal: dropped at `site` (called only by RuntimeMetrics::drop).
  void on_drop(const netio::Mbuf* m, DropSite site);

  /// Snapshot the conservation state.  After a drained run, clean().
  LedgerAudit audit() const;

  // netio::MbufLifecycleObserver
  void on_mbuf_release(netio::Mbuf& mbuf, bool last_ref) override;

 private:
  struct Record {
    LedgerStage stage = LedgerStage::kIbq;
    bool closed = false;
  };

  /// Close the record as a terminal; returns false (and counts) on a
  /// double terminal or an untracked packet.
  Record* terminal_record(const netio::Mbuf* m);

  bool installed_ = false;
  std::unordered_map<const netio::Mbuf*, Record> records_;

  // Tallies mirrored into dhl.ledger.* telemetry.
  std::uint64_t open_ = 0;  // lifecycles with no terminal yet
  std::uint64_t tracked_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_[telemetry::kDropSites.size()] = {};
  std::uint64_t double_track_ = 0;
  std::uint64_t double_terminal_ = 0;
  std::uint64_t premature_release_ = 0;
  std::uint64_t orphan_terminal_ = 0;
  std::uint64_t stage_entries_[static_cast<std::size_t>(LedgerStage::kCount)] =
      {};

  telemetry::Counter* tracked_counter_ = nullptr;
  telemetry::Counter* delivered_counter_ = nullptr;
  telemetry::Counter* violation_counter_ = nullptr;
  telemetry::Gauge* live_gauge_ = nullptr;
};

#else  // !DHL_LEDGER

/// Ledger-off stub: same surface, empty inline bodies.  Call sites stay
/// unconditional; the optimizer erases them from the Release hot path.
class LifecycleLedger {
 public:
  explicit LifecycleLedger(telemetry::Telemetry&) {}

  LifecycleLedger(const LifecycleLedger&) = delete;
  LifecycleLedger& operator=(const LifecycleLedger&) = delete;

  void on_ingress(const netio::Mbuf*) {}
  void on_stage(const netio::Mbuf*, LedgerStage) {}
  void on_batch_stage(const fpga::DmaBatch&, LedgerStage) {}
  void on_delivered(const netio::Mbuf*) {}
  void on_drop(const netio::Mbuf*, DropSite) {}
  LedgerAudit audit() const { return {}; }
};

#endif  // DHL_LEDGER

}  // namespace dhl::runtime
