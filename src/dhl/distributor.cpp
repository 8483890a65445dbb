#include "dhl/runtime/distributor.hpp"

#include "dhl/common/check.hpp"
#include "dhl/common/log.hpp"

namespace dhl::runtime {

using netio::Mbuf;
using netio::NfId;

Distributor::Distributor(sim::Simulator& simulator,
                         const RuntimeConfig& config,
                         telemetry::Telemetry& telemetry,
                         RuntimeMetrics& metrics, std::vector<NfInfo>& nfs,
                         BatchPoolSet& pools)
    : sim_{simulator},
      config_{config},
      telemetry_{telemetry},
      metrics_{metrics},
      nfs_{nfs},
      pools_{pools},
      sockets_(static_cast<std::size_t>(config.num_sockets)) {
  for (int s = 0; s < config_.num_sockets; ++s) {
    SocketState& state = sockets_[static_cast<std::size_t>(s)];
    state.completions_depth = telemetry_.metrics.gauge(
        "dhl.runtime.completions_depth",
        telemetry::Labels{{"socket", std::to_string(s)}});
    state.rx_track = "dhl.rx.socket" + std::to_string(s);
  }
}

bool Distributor::batch_intact(const fpga::DmaBatch& batch) const {
  if (batch.wire_corrupt) return false;
  if (config_.crc_check && !batch.verify_crc()) return false;
  // Structural pre-pass: the hot loop in poll() must never see a batch it
  // cannot walk end-to-end, or records and parked mbufs desynchronize.
  const auto& pkts = batch.pkts();
  fpga::RecordCursor cursor{batch};
  fpga::RecordView v;
  std::size_t records = 0;
  try {
    while (cursor.next(v)) {
      if (records >= pkts.size()) return false;
      // replace_data() hard-aborts on overflow; a corrupt length must be
      // caught here, where it is a counted drop instead of a crash.
      if (v.header.data_len > pkts[records]->capacity()) return false;
      ++records;
    }
  } catch (const std::runtime_error&) {
    return false;  // truncated header or data overrunning the buffer
  }
  return records == pkts.size();
}

void Distributor::drop_corrupt_batch(fpga::DmaBatchPtr batch) {
  metrics_.land(*batch, /*intact=*/false);
  auto& pkts = batch->pkts();
  for (Mbuf* m : pkts) metrics_.drop(m, DropSite::kCrc);
  metrics_.crc_drop_batches->add(1);
  telemetry_.recorder.log(telemetry::FlightComponent::kDistributor, sim_.now(),
                          telemetry::FlightEventKind::kCrcDrop, batch->hf_name,
                          static_cast<std::int16_t>(batch->acc_id()),
                          static_cast<std::int32_t>(pkts.size()),
                          batch->batch_id);
  DHL_WARN("dhl", "dropping corrupt batch " << batch->batch_id << " ("
                                            << pkts.size() << " pkts)");
  pools_.recycle(std::move(batch));
}

void Distributor::enqueue_completion(int socket, fpga::DmaBatchPtr batch) {
  // RX delivery, in untimed event context: book the batch's round trip
  // from the DMA engine's seam stamps, one record_n per stage.  Only
  // Packer-flushed batches carry the stamps.
  metrics_.ledger.on_batch_stage(*batch, LedgerStage::kFpga);
  metrics_.ledger.on_batch_stage(*batch, LedgerStage::kDmaRx);
  if (batch->flushed_at != 0 && telemetry_.stages.enabled()) {
    const std::uint64_t n = batch->pkts().size();
    telemetry_.stages.record_n(telemetry::Stage::kDmaTx,
                               batch->tx_done_at - batch->flushed_at, n);
    telemetry_.stages.record_n(telemetry::Stage::kFpga,
                               batch->rx_submitted_at - batch->tx_done_at, n);
    telemetry_.stages.record_n(telemetry::Stage::kDmaRx,
                               batch->rx_done_at - batch->rx_submitted_at, n);
  }
  // Integrity gate at the DMA boundary.
  if (!batch_intact(*batch)) {
    drop_corrupt_batch(std::move(batch));
    return;
  }
  SocketState& state = sockets_[static_cast<std::size_t>(socket)];
  if (state.pending() == state.ring.size()) {
    // Full: double the ring.  The pending run [head, tail) is one ring's
    // worth of consecutive indices, so it lands on distinct slots of the
    // larger mask with head and tail unchanged.
    std::vector<fpga::DmaBatchPtr> grown(state.ring.size() * 2);
    for (std::uint64_t i = state.head; i != state.tail; ++i) {
      grown[i & (grown.size() - 1)] = std::move(state.slot(i));
    }
    state.ring = std::move(grown);
  }
  state.slot(state.tail++) = std::move(batch);
  if (state.core != nullptr) state.core->wake();
}

std::unique_ptr<Distributor::DeliveryVec> Distributor::take_buffer(
    SocketState& state) {
  if (!state.free_buffers.empty()) {
    auto buf = std::move(state.free_buffers.back());
    state.free_buffers.pop_back();
    return buf;
  }
  return std::make_unique<DeliveryVec>();
}

sim::PollResult Distributor::poll(int socket) {
  SocketState& state = sockets_[static_cast<std::size_t>(socket)];
  const auto& rt = config_.timing.runtime;
  const Frequency clock = config_.timing.cpu.core_clock;
  const Picos t0 = sim_.now();
  const bool tracing = telemetry_.trace.enabled();
  // Nothing to pick up: park until enqueue_completion() wakes this core.
  const bool idle = state.pending() == 0;
  double cycles = 0;
  std::unique_ptr<DeliveryVec> deliveries;

  for (std::uint32_t b = 0; b < kRxBurst && state.pending() > 0; ++b) {
    fpga::DmaBatchPtr batch = std::move(state.slot(state.head++));
    metrics_.batches_from_fpga->add(1);
    const double batch_start_cycles = cycles;
    cycles += rt.distributor_per_batch_cycles;

    // Distributor stage, once per batch: RX delivery -> this pickup, i.e.
    // completion-ring wait plus poll scheduling.
    if (batch->flushed_at != 0 && telemetry_.stages.enabled()) {
      telemetry_.stages.record_n(telemetry::Stage::kDistributor,
                                 t0 - batch->rx_done_at,
                                 batch->pkts().size());
    }

    // The batch survived the integrity gate, so its round trip ends intact:
    // land() settles its replica's outstanding bytes, resets the replica's
    // failure streak (ending a probation) and frees the tenant's batch
    // budget before per-packet routing decides each packet's fate.
    metrics_.land(*batch, /*intact=*/true);

    // Zero-alloc decapsulation: walk the wire records with a cursor
    // instead of materializing parse()'s per-batch view vector.
    const auto& pkts = batch->pkts();
    fpga::RecordCursor cursor{*batch};
    fpga::RecordView v;
    std::size_t records = 0;
    while (cursor.next(v)) {
      DHL_CHECK_MSG(records < pkts.size(),
                    "batch record/mbuf count mismatch");
      Mbuf* m = pkts[records++];
      metrics_.ledger.on_stage(m, LedgerStage::kDistributor);
      metrics_.pkts_from_fpga->add(1);
      cycles += rt.distributor_per_pkt_cycles;
      RuntimeMetrics::NfAccCounters& c =
          metrics_.nf_acc(v.header.nf_id, v.header.acc_id);
      c.returned->add(1);
      if (v.header.flags & fpga::kRecordFlagError) {
        metrics_.error_records->add(1);
        c.errors->add(1);
      }

      // Restore post-processed bytes and the module result into the mbuf.
      // Result-only modules stamp kRecordFlagDataUnmodified: the mbuf
      // already holds exactly these bytes, so the write-back memcpy is
      // skipped (the length check keeps a corrupted wire flag from ever
      // desynchronizing mbuf and record lengths).
      if ((v.header.flags & fpga::kRecordFlagDataUnmodified) != 0 &&
          v.header.data_len == m->data_len()) {
        metrics_.zero_copy_bytes->add(v.header.data_len);
      } else {
        m->replace_data({batch->buffer().data() + v.data_offset,
                         v.header.data_len});
        metrics_.copy_bytes->add(v.header.data_len);
      }
      m->set_accel_result(v.header.result);

      // Isolation: route on the wire-format nf_id (paper IV-B1).
      const NfId nf = v.header.nf_id;
      if (nf >= nfs_.size()) {
        metrics_.drop(m, DropSite::kObq);
        continue;
      }
      if (deliveries == nullptr) deliveries = take_buffer(state);
      deliveries->push_back({nf, m});
    }
    DHL_CHECK_MSG(records == pkts.size(),
                  "batch record/mbuf count mismatch");

    if (tracing) {
      // Span endpoints use the cumulative distributor cycles within this
      // iteration, so back-to-back batches tile the RX lane without overlap.
      const Picos d0 = t0 + clock.cycles(batch_start_cycles);
      const Picos d1 = t0 + clock.cycles(cycles);
      telemetry_.trace.complete_span(
          state.rx_track, "batch.distribute", "runtime", d0, d1,
          {{"batch", std::to_string(batch->batch_id)},
           {"records", std::to_string(records)}});
      // Whole life of the batch: first packet enqueued by the Packer,
      // DMA'd, processed, DMA'd back, distributed.  The span starts at the
      // first packet's enqueue, not the (possibly earlier) slot-open time
      // -- it bounds packet latency, and no packet existed before then.
      telemetry_.trace.complete_span(
          "dhl.batch", "batch.lifecycle", "runtime",
          batch->first_pkt_enqueued_at, d1,
          {{"batch", std::to_string(batch->batch_id)},
           {"records", std::to_string(records)}});
    }
    // Drained: hand the batch (and its buffer capacity) back to its home
    // pool for the Packer to reuse.
    pools_.recycle(std::move(batch));
  }
  state.completions_depth->set(static_cast<double>(state.pending()));

  // Packets land in their private OBQs after the Distributor cycles spent
  // on them (same reasoning as the Packer's deferred doorbell).
  if (deliveries != nullptr && !deliveries->empty()) {
    // The unique_ptr rides a shared_ptr shim so the move-only buffer fits
    // the std::function event; the *same* heap vector goes back on the
    // free list afterwards.  (The previous code allocated a brand-new
    // DeliveryVec per event here, so take_buffer() never actually hit its
    // pool -- one heap allocation per poll with traffic, forever.)
    auto shared =
        std::make_shared<std::unique_ptr<DeliveryVec>>(std::move(deliveries));
    sim_.schedule_after(
        clock.cycles(cycles), [this, socket, shared] {
          // Untimed event context: per-packet ibq-wait and end-to-end
          // records cost no modeled cycles and stay out of the benches'
          // timed poll sections.
          const Picos now = sim_.now();
          for (const Delivery& d : **shared) {
            metrics_.deliver(nfs_[d.nf], d.nf, d.m, now,
                             telemetry::Stage::kIbqWait);
          }
          // Recycle the buffer for a later iteration on this socket.
          (*shared)->clear();
          sockets_[static_cast<std::size_t>(socket)].free_buffers.push_back(
              std::move(*shared));
        });
  }
  return {cycles, idle};
}

}  // namespace dhl::runtime
