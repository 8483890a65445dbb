#pragma once

// Scatter-gather packet DMA engine over PCIe (paper IV-A1).
//
// Models the cost structure of the paper's engine on PCIe gen3 x8:
//
//   channel occupancy per transfer  = max(overhead + size/link,
//                                         size/sustained_cap)
//   one-way delivery latency        = base_latency + size/link
//                                     (+ NUMA-remote penalty)
//
// which reproduces Figure 4: throughput rises with transfer size, kneeing
// into the 42 Gbps ceiling at ~6 KB, while round-trip latency stays in the
// low microseconds for the UIO poll-mode driver.  The in-kernel reference
// driver (Northwest Logic) pays a syscall/copy overhead per transfer and an
// interrupt/scheduler latency of milliseconds -- the second pair of curves
// in Figure 4.
//
// TX (host->FPGA) and RX (FPGA->host) are independent full-duplex channels,
// each with its own serialization queue.
//
// The engine stamps the seams a batch crosses here (TX delivery, RX submit,
// RX delivery) and books no pipeline stage itself: the runtime derives the
// stage latencies and ledger marks from the stamps (DESIGN.md section 7).

#include <algorithm>
#include <functional>
#include <optional>
#include <string>
#include <utility>

#include "dhl/common/units.hpp"
#include "dhl/fpga/batch.hpp"
#include "dhl/fpga/fault_hook.hpp"
#include "dhl/sim/simulator.hpp"
#include "dhl/sim/timing_params.hpp"
#include "dhl/telemetry/metrics.hpp"
#include "dhl/telemetry/trace.hpp"

namespace dhl::fpga {

enum class DmaDriver : std::uint8_t {
  kUioPoll,   // DHL's userspace-IO poll-mode driver
  kInKernel,  // reference in-kernel driver (interrupt + syscalls)
};

class DmaEngine {
 public:
  using DeliverFn = std::function<void(DmaBatchPtr)>;

  DmaEngine(sim::Simulator& simulator, sim::DmaParams params,
            DmaDriver driver = DmaDriver::kUioPoll)
      : sim_{simulator}, params_{params}, driver_{driver} {}

  const sim::DmaParams& params() const { return params_; }

  /// Called with each batch that completes the host->FPGA transfer
  /// (the device's Dispatcher hooks this).
  void set_tx_deliver(DeliverFn fn) { tx_deliver_ = std::move(fn); }
  /// Called with each batch that completes the FPGA->host transfer
  /// (the runtime's transfer layer hooks this).
  void set_rx_deliver(DeliverFn fn) { rx_deliver_ = std::move(fn); }

  /// Attach telemetry: per-direction submit->complete latency histograms
  /// and (when tracing) one `dma.tx`/`dma.rx` span per transfer on `track`.
  /// All pointers may be null; the owning FpgaDevice wires this up.
  void set_telemetry(sim::LatencyHistogram* tx_latency,
                     sim::LatencyHistogram* rx_latency,
                     telemetry::TraceSession* trace, std::string track) {
    tx_latency_ = tx_latency;
    rx_latency_ = rx_latency;
    trace_ = trace;
    track_ = std::move(track);
  }

  /// Fault-injection seam (DESIGN.md section 3.3).  A null hook -- the
  /// default -- is a perfect engine.  `fpga_id` labels this engine's
  /// samples so rules can target one board.
  void set_fault_hook(FaultHook* hook, int fpga_id) {
    fault_hook_ = hook;
    fault_fpga_id_ = fpga_id;
  }

  /// Submit a batch for host->FPGA transfer.
  void submit_tx(DmaBatchPtr batch) {
    submit(std::move(batch), tx_, std::nullopt);
  }
  /// Submit a batch for FPGA->host transfer.  Samples the dma.completion
  /// site: a fired fault corrupts the wire bytes after the checksum stamp.
  void submit_rx(DmaBatchPtr batch) {
    const auto fault = sample(FaultSite::kDmaCompletion);
    submit(std::move(batch), rx_,
           fault ? std::optional{fault->kind} : std::nullopt);
  }

  /// Fault-aware TX submit: samples the dma.submit site first.  On a
  /// submit-timeout fault the doorbell is lost -- returns false and leaves
  /// `batch` with the caller so it can retry with backoff.  A
  /// partial-transfer fault lets the submit proceed but truncates the wire
  /// bytes after the checksum stamp (the receiver's CRC check catches it).
  bool try_submit_tx(DmaBatchPtr& batch) {
    std::optional<FaultKind> wire_fault;
    if (const auto fault = sample(FaultSite::kDmaSubmit)) {
      if (fault->kind == FaultKind::kSubmitTimeout) return false;
      if (fault->kind == FaultKind::kPartialTransfer) {
        wire_fault = FaultKind::kTruncateTail;
      }
    }
    submit(std::move(batch), tx_, wire_fault);
    return true;
  }

  /// One-way delivery latency for a transfer of `bytes` (exposed for tests
  /// and the Fig 4 bench).
  Picos one_way_latency(std::uint64_t bytes, bool remote_numa) const {
    const Picos base = driver_ == DmaDriver::kUioPoll
                           ? params_.uio_base_latency
                           : params_.kernel_base_latency;
    return base + params_.link.transfer_time(bytes) +
           (remote_numa ? params_.numa_remote_penalty : 0);
  }

  /// Channel occupancy (serialization time) for a transfer of `bytes`.
  Picos occupancy(std::uint64_t bytes) const {
    const Picos overhead = driver_ == DmaDriver::kUioPoll
                               ? params_.uio_per_transfer_overhead
                               : params_.kernel_per_transfer_overhead;
    const Picos serialized = overhead + params_.link.transfer_time(bytes);
    const Picos capped = params_.sustained_cap.transfer_time(bytes);
    return serialized > capped ? serialized : capped;
  }

  std::uint64_t tx_transfers() const { return tx_.transfers; }
  std::uint64_t tx_bytes() const { return tx_.bytes; }
  std::uint64_t rx_transfers() const { return rx_.transfers; }
  std::uint64_t rx_bytes() const { return rx_.bytes; }

 private:
  struct Channel {
    Picos busy_until = 0;
    std::uint64_t transfers = 0;
    std::uint64_t bytes = 0;
  };

  std::optional<FaultOutcome> sample(FaultSite site) {
    if (fault_hook_ == nullptr) return std::nullopt;
    return fault_hook_->sample(site, fault_fpga_id_);
  }

  /// Apply a fired wire fault -- a completion corruption, or a partial
  /// transfer's cut tail -- to the wire bytes.  Runs after stamp_crc(), so
  /// every kind is a checksum mismatch downstream.
  void corrupt_wire(DmaBatch& batch, FaultKind kind) {
    auto& buf = batch.buffer();
    if (buf.size() < kRecordHeaderBytes) return;
    switch (kind) {
      case FaultKind::kCorruptHeader: {
        // Flip one bit somewhere in the first record's header.
        const std::uint64_t r = fault_hook_->rand();
        buf[r % kRecordHeaderBytes] ^=
            static_cast<std::uint8_t>(1u << ((r >> 8) % 8));
        break;
      }
      case FaultKind::kFlipUnmodifiedFlag:
        // Low byte of the little-endian u16 flags field.
        buf[2] ^= static_cast<std::uint8_t>(kRecordFlagDataUnmodified);
        break;
      case FaultKind::kTruncateTail: {
        const std::uint64_t cut =
            1 + fault_hook_->rand() % std::min<std::size_t>(buf.size() - 1,
                                                            kRecordHeaderBytes);
        buf.resize(buf.size() - cut);
        break;
      }
      default:
        break;
    }
  }

  /// `wire_fault` is the fault the submitting side sampled, if any.
  void submit(DmaBatchPtr batch, Channel& ch,
              std::optional<FaultKind> wire_fault) {
    const bool is_tx = &ch == &tx_;
    // The submit boundary is where the hardware SG engine gathers the
    // descriptor list into one wire transfer; staged records become bytes
    // here.  No-op for batches built with append().
    batch->linearize();
    // Stamp the per-transfer checksum over the final wire bytes; whatever
    // corrupts them downstream (injected or real) fails verification at
    // the receiving end instead of desynchronizing the record walk.
    batch->stamp_crc();
    if (wire_fault) corrupt_wire(*batch, *wire_fault);
    const std::uint64_t bytes = batch->size_bytes();
    // Seam stamp: an RX submit happens when the fabric finishes the batch.
    if (!is_tx) batch->rx_submitted_at = sim_.now();
    const Picos start = ch.busy_until > sim_.now() ? ch.busy_until : sim_.now();
    ch.busy_until = start + occupancy(bytes);
    ch.transfers += 1;
    ch.bytes += bytes;
    const Picos deliver_at = start + one_way_latency(bytes, batch->remote_numa);
    // Submit->complete latency as the host observes it: queueing behind the
    // channel plus the one-way delivery (decided now -- virtual time).
    if (sim::LatencyHistogram* h = is_tx ? tx_latency_ : rx_latency_) {
      h->record(deliver_at - sim_.now());
    }
    if (trace_ != nullptr && trace_->enabled()) {
      trace_->complete_span(
          track_, is_tx ? "dma.tx" : "dma.rx", "dma", sim_.now(), deliver_at,
          {{"bytes", std::to_string(bytes)},
           {"batch", std::to_string(batch->batch_id)},
           {"records", std::to_string(batch->record_count())}});
    }
    DeliverFn& fn = is_tx ? tx_deliver_ : rx_deliver_;
    DHL_CHECK_MSG(static_cast<bool>(fn), "DMA channel has no deliver hook");
    // The shared_ptr shim lets the move-only batch ride a std::function.
    auto shared = std::make_shared<DmaBatchPtr>(std::move(batch));
    sim_.schedule_at(deliver_at, [this, &fn, is_tx, shared] {
      DmaBatch& b = **shared;
      (is_tx ? b.tx_done_at : b.rx_done_at) = sim_.now();  // seam stamp
      fn(std::move(*shared));
    });
  }

  sim::Simulator& sim_;
  sim::DmaParams params_;
  const DmaDriver driver_;
  DeliverFn tx_deliver_;
  DeliverFn rx_deliver_;
  Channel tx_;
  Channel rx_;
  sim::LatencyHistogram* tx_latency_ = nullptr;
  sim::LatencyHistogram* rx_latency_ = nullptr;
  telemetry::TraceSession* trace_ = nullptr;
  std::string track_;
  FaultHook* fault_hook_ = nullptr;
  int fault_fpga_id_ = -1;
};

}  // namespace dhl::fpga
