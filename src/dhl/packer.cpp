#include "dhl/runtime/packer.hpp"

#include <algorithm>
#include <span>

#include "dhl/common/check.hpp"
#include "dhl/common/log.hpp"
#include "dhl/fpga/device.hpp"

namespace dhl::runtime {

using netio::AccId;
using netio::Mbuf;
using netio::MbufRing;

Packer::Packer(sim::Simulator& simulator, const RuntimeConfig& config,
               telemetry::Telemetry& telemetry, RuntimeMetrics& metrics,
               HwFunctionTable& table, BatchPoolSet& pools,
               TenantRegistry& tenants, DispatchPolicy& policy,
               FallbackRouter& fallback)
    : sim_{simulator},
      config_{config},
      telemetry_{telemetry},
      metrics_{metrics},
      table_{table},
      pools_{pools},
      tenants_{tenants},
      policy_{&policy},
      fallback_{fallback},
      sockets_(static_cast<std::size_t>(config.num_sockets)) {
  for (int s = 0; s < config_.num_sockets; ++s) {
    SocketState& state = sockets_[static_cast<std::size_t>(s)];
    state.ibq = std::make_unique<MbufRing>(
        "dhl.ibq.socket" + std::to_string(s), config_.ibq_size,
        netio::SyncMode::kMulti, netio::SyncMode::kSingle);
    state.scratch.resize(config_.ibq_burst);
    state.open.resize(kMaxTenants * 256);
    state.ibq_depth = telemetry_.metrics.gauge(
        "dhl.runtime.ibq_depth",
        telemetry::Labels{{"socket", std::to_string(s)}});
    state.tx_track = "dhl.tx.socket" + std::to_string(s);
  }
}

std::uint32_t Packer::batch_cap(const SocketState& state) const {
  const auto& rt = config_.timing.runtime;
  if (!rt.adaptive_batching) return rt.max_batch_bytes;
  // Size the batch so it fills in roughly one DMA round trip's worth of
  // arrivals: low rates get small batches (latency), rates near the DMA
  // ceiling get the full cap (throughput).  Paper VI-2's proposed policy.
  constexpr double kTargetFillSeconds = 3e-6;
  const double target = state.ewma_bytes_per_sec * kTargetFillSeconds;
  if (target <= rt.min_batch_bytes) return rt.min_batch_bytes;
  if (target >= rt.max_batch_bytes) return rt.max_batch_bytes;
  return static_cast<std::uint32_t>(target);
}

HwFunctionEntry* Packer::choose_replica(HwFunctionEntry* primary, int socket) {
  ReplicaSet* set = table_.replica_set(primary->hf_name);
  if (set == nullptr) {
    return table_.dispatchable(primary) ? primary : nullptr;
  }
  // Health-filtered candidate list: healthy and probation replicas first;
  // degraded ones only when nothing better is dispatchable; quarantined
  // replicas never (dispatchable() also promotes a replica whose
  // quarantine period has elapsed to probation).
  candidates_.clear();
  bool any_degraded = false;
  for (HwFunctionEntry* e : set->replicas) {
    if (!table_.dispatchable(e)) continue;
    if (e->health == ReplicaHealth::kDegraded) {
      any_degraded = true;
      continue;
    }
    candidates_.push_back(e);
  }
  if (candidates_.empty() && any_degraded) {
    for (HwFunctionEntry* e : set->replicas) {
      if (table_.dispatchable(e)) candidates_.push_back(e);
    }
  }
  if (candidates_.empty()) return nullptr;
  if (candidates_.size() == 1) return candidates_.front();
  DispatchContext ctx;
  ctx.socket = socket;
  ctx.hf_name = &set->hf_name;
  ctx.cursor = &set->cursor;
  HwFunctionEntry* picked = policy_->pick(candidates_, ctx);
  return picked != nullptr ? picked : candidates_.front();
}

void Packer::drop_batch(fpga::DmaBatchPtr batch) {
  telemetry_.recorder.log(telemetry::FlightComponent::kPacker, sim_.now(),
                          telemetry::FlightEventKind::kDrop, "unready",
                          static_cast<std::int16_t>(batch->acc_id()),
                          static_cast<std::int32_t>(batch->pkts().size()));
  for (Mbuf* m : batch->pkts()) metrics_.drop(m, DropSite::kUnready);
  pools_.recycle(std::move(batch));
}

void Packer::fallback_or_drop(fpga::DmaBatchPtr batch,
                              const std::string& hf_name) {
  telemetry_.recorder.log(telemetry::FlightComponent::kPacker, sim_.now(),
                          telemetry::FlightEventKind::kDrop, hf_name,
                          static_cast<std::int16_t>(batch->acc_id()),
                          static_cast<std::int32_t>(batch->pkts().size()));
  // Hand the fallback router whole same-NF runs (batches are usually
  // single-NF, so normally one call) so batch-registered software paths --
  // multi-lane Aho-Corasick, pipelined AES-CTR -- see the batch shape
  // instead of one packet per call.
  const auto& pkts = batch->pkts();
  std::size_t i = 0;
  while (i < pkts.size()) {
    std::size_t j = i + 1;
    while (j < pkts.size() && pkts[j]->nf_id() == pkts[i]->nf_id()) ++j;
    const std::span<Mbuf* const> run{pkts.data() + i, j - i};
    if (fallback_.process_batch(pkts[i]->nf_id(), hf_name, run)) {
      i = j;  // served in software, delivered to the NF's OBQ
      continue;
    }
    for (Mbuf* m : run) metrics_.drop(m, DropSite::kSubmit);
    i = j;
  }
  pools_.recycle(std::move(batch));
}

void Packer::submit_with_retry(fpga::FpgaDevice* dev, fpga::DmaBatchPtr batch,
                               std::uint32_t attempt) {
  // Idempotent: retries and redirects re-mark the same stage, a no-op.
  metrics_.ledger.on_batch_stage(*batch, LedgerStage::kDmaTx);
  if (dev->dma().try_submit_tx(batch)) return;
  const auto& rt = config_.timing.runtime;
  if (attempt < rt.dma_submit_max_retries) {
    // Lost doorbell: retry after a bounded exponential backoff, all on the
    // virtual clock (attempt n waits backoff << n).
    metrics_.dma_retries->add(1);
    const Picos backoff = rt.dma_retry_backoff << attempt;
    telemetry_.stages.record(telemetry::Stage::kRetryBackoff, backoff);
    telemetry_.recorder.log(telemetry::FlightComponent::kDma, sim_.now(),
                            telemetry::FlightEventKind::kDmaRetry,
                            batch->hf_name,
                            static_cast<std::int16_t>(attempt + 1),
                            static_cast<std::int32_t>(dev->fpga_id()),
                            batch->batch_id);
    auto shared = std::make_shared<fpga::DmaBatchPtr>(std::move(batch));
    sim_.schedule_after(backoff,
                        [this, dev, shared, attempt] {
                          submit_with_retry(dev, std::move(*shared),
                                            attempt + 1);
                        });
    return;
  }
  // Retry budget exhausted: the round trip ends here and the replica is
  // blamed -- unless an unload/reload recycled its acc_id slot while we
  // were backing off, in which case land() blames nobody (stale).
  HwFunctionEntry* failed = metrics_.land(*batch, /*intact=*/false);
  // One redirect attempt: another dispatchable replica gets the batch with
  // a fresh retry budget.  Sending the same batch back to the replica that
  // just exhausted its budget is pointless -- later flushes will still
  // probe it while it is degraded.
  HwFunctionEntry* alt =
      failed != nullptr ? choose_replica(failed, dev->socket()) : nullptr;
  if (alt != nullptr && alt != failed) {
    DHL_WARN("dhl", "redirecting batch " << batch->batch_id << " to fpga "
                                         << alt->fpga_id << " region "
                                         << alt->region);
    telemetry_.recorder.log(telemetry::FlightComponent::kDma, sim_.now(),
                            telemetry::FlightEventKind::kRedirect,
                            batch->hf_name,
                            static_cast<std::int16_t>(alt->fpga_id),
                            static_cast<std::int32_t>(alt->region),
                            batch->batch_id);
    bind(*batch, *alt, batch->tenant);
    submit_with_retry(alt->device, std::move(batch), 0);
    return;
  }
  // The batch still names the function it was packed for, even when its
  // replica is gone: that function's software fallback serves its packets.
  const std::string hf = batch->hf_name;
  fallback_or_drop(std::move(batch), hf);
}

void Packer::bind(fpga::DmaBatch& batch, HwFunctionEntry& replica,
                  TenantId tenant) {
  // Records must carry the acc_id the replica's Dispatcher has mapped.
  if (batch.acc_id() != replica.acc_id) batch.retag_acc(replica.acc_id);
  // NUMA-aware allocation keeps the buffers on the FPGA's node; otherwise
  // they live on socket 0 and FPGAs elsewhere pay the remote penalty.
  batch.remote_numa = !config_.numa_aware && replica.device->socket() != 0;
  metrics_.launch(batch, replica, tenant);
}

double Packer::flush_batch(int socket, AccId acc_id, OpenBatch&& open,
                           PendingSubmits& pending, FlushReason reason,
                           TenantId tenant) {
  const auto& rt = config_.timing.runtime;
  fpga::DmaBatchPtr batch = std::move(open.batch);
  HwFunctionEntry* primary = table_.entry_for(acc_id);
  if (primary == nullptr) {
    // unload_function() raced this open batch (e.g. a timeout flush after
    // the entry vanished): release the parked packets, loudly.
    DHL_WARN("dhl", "dropping open batch for unloaded acc_id "
                        << static_cast<int>(acc_id));
    drop_batch(std::move(batch));
    return rt.packer_per_batch_cycles;
  }
  HwFunctionEntry* target = choose_replica(primary, socket);
  // fpga.device faults: the chosen replica's board goes unhealthy at the
  // moment of dispatch.  Quarantine it and re-pick; the loop is bounded
  // because every fired sample removes one replica from the candidates.
  while (fault_ != nullptr && target != nullptr &&
         fault_->sample(fpga::FaultSite::kDevice, target->fpga_id)) {
    table_.quarantine_replica(target);
    target = choose_replica(primary, socket);
  }
  if (target == nullptr) {
    // Whole function quarantined: bottom of the degradation ladder.
    fallback_or_drop(std::move(batch), primary->hf_name);
    return rt.packer_per_batch_cycles;
  }
  fpga::FpgaDevice* dev = target->device;
  DHL_CHECK(dev != nullptr);
  batch->batch_id = metrics_.next_batch_id++;
  batch->submitted_bytes = batch->size_bytes();
  bind(*batch, *target, tenant);
  target->dispatch_batches->add(1);
  target->dispatch_bytes->add(batch->size_bytes());
  metrics_.batches_to_fpga->add(1);
  metrics_.pkts_to_fpga->add(batch->record_count());
  metrics_.bytes_to_fpga->add(batch->size_bytes());
  (reason == FlushReason::kFull ? metrics_.flush_full
                                : metrics_.flush_timeout)
      ->add(1);
  // Fill relative to the cap actually in effect at flush time: under
  // adaptive batching the effective cap shrinks with the arrival rate, and
  // recording against max_batch_bytes would under-report fill.
  metrics_.batch_fill_ppm->record(
      batch->size_bytes() * 1'000'000ull /
      batch_cap(sockets_[static_cast<std::size_t>(socket)]));
  if (telemetry_.trace.enabled()) {
    telemetry_.trace.complete_span(
        sockets_[static_cast<std::size_t>(socket)].tx_track, "batch.pack",
        "runtime", open.opened_at, sim_.now(),
        {{"batch", std::to_string(batch->batch_id)},
         {"acc", std::to_string(static_cast<int>(target->acc_id))},
         {"fpga", dev->name()},
         {"bytes", std::to_string(batch->size_bytes())},
         {"records", std::to_string(batch->record_count())},
         {"reason", reason == FlushReason::kFull ? "full" : "timeout"}});
  }
  // Seam stamp: one store in the timed poll.  The pack-stage record and
  // the flush flight event are deferred to the doorbell event (untimed
  // context); the Distributor books dma.tx from this stamp too.
  batch->flushed_at = sim_.now();
  pending.emplace_back(dev, std::move(batch));
  return rt.packer_per_batch_cycles;
}

sim::PollResult Packer::poll(int socket) {
  SocketState& state = sockets_[static_cast<std::size_t>(socket)];
  const auto& rt = config_.timing.runtime;
  const auto& cpu = config_.timing.cpu;
  double cycles = 0;
  PendingSubmits pending;

  Mbuf** pkts = state.scratch.data();
  const std::size_t n =
      state.ibq->dequeue_burst({pkts, state.scratch.size()});
  // Whether this poll did anything a later poll would see; if not, the
  // TX core parks (end of poll).
  bool did_work = n > 0;
  // In flight from here until each packet's deliver() or drop().
  metrics_.in_flight += n;
  state.ibq_depth->set(static_cast<double>(state.ibq->count()));
  if (n > 0) {
    cycles += cpu.ring_op_fixed_cycles +
              cpu.ring_op_per_pkt_cycles * static_cast<double>(n);
  }

  if (rt.adaptive_batching) {
    // Update the arrival-rate estimate once per iteration.
    const Picos now = sim_.now();
    if (state.last_tx_poll != 0 && now > state.last_tx_poll) {
      std::uint64_t bytes = 0;
      for (std::size_t i = 0; i < n; ++i) bytes += pkts[i]->data_len();
      const double inst = static_cast<double>(bytes) /
                          to_seconds(now - state.last_tx_poll);
      state.ewma_bytes_per_sec =
          rt.adaptive_ewma_alpha * inst +
          (1 - rt.adaptive_ewma_alpha) * state.ewma_bytes_per_sec;
    }
    state.last_tx_poll = now;
  }
  const std::uint32_t cap = batch_cap(state);

  // Hoisted: one branch + one store per packet is the whole per-packet cost
  // of the introspection layer inside this timed loop (the bench_micro A/B
  // gate holds it under 2% of host ns/pkt).
  const bool stages_on = telemetry_.stages.enabled();
  const Picos ingress_now = sim_.now();

  for (std::size_t i = 0; i < n; ++i) {
    Mbuf* m = pkts[i];
    if (stages_on) m->set_stage_ts(ingress_now);
    metrics_.ledger.on_ingress(m);
    const AccId acc_id = m->acc_id();
    const TenantId tenant = tenants_.tenant_of(m->nf_id());
    // Bytes leave the tenant's queued bucket the moment they leave the IBQ,
    // whatever their later fate (they re-enter the in-flight bucket only if
    // a batch carrying them flushes).
    tenants_.on_packer_ingest(m->nf_id(), m->data_len());
    const HwFunctionEntry* e = table_.entry_for(acc_id);  // O(1)
    if (e == nullptr || !e->ready) {
      // Paper never sends before search/configure; treat as caller error.
      DHL_WARN("dhl", "packet tagged with unknown/unready acc_id "
                          << static_cast<int>(acc_id) << "; dropping");
      metrics_.drop(m, DropSite::kUnready);
      continue;
    }
    // Health fast path: one enum compare per packet.  Anything but a
    // healthy primary takes the slow path, which may route the packet
    // through the software fallback when the whole function is down.
    if (e->health != ReplicaHealth::kHealthy &&
        !table_.any_dispatchable(e->hf_name)) {
      cycles += rt.packer_per_pkt_cycles;
      if (fallback_.process(m->nf_id(), e->hf_name, m)) {
        continue;  // served in software; never entered a batch
      }
      metrics_.drop(m, DropSite::kSubmit);
      continue;
    }
    const std::size_t record_bytes = fpga::kRecordHeaderBytes + m->data_len();
    if (record_bytes > rt.max_batch_bytes) {
      // A record that can't fit even an empty batch at the hard cap has no
      // legal encapsulation: flush-before-append only fires on non-empty
      // batches, so the record used to be appended anyway and ship a batch
      // violating the 6 KB DMA contract.  Judged against max_batch_bytes,
      // not the adaptive cap -- adaptive batching shrinks the target, not
      // the wire-format ceiling.
      cycles += rt.packer_per_pkt_cycles;
      if (fallback_.process(m->nf_id(), e->hf_name, m)) {
        continue;  // served in software, unbatched
      }
      metrics_.drop(m, DropSite::kOversize);
      continue;
    }
    const OpenKey key = open_key(tenant, acc_id);
    OpenBatch& open = state.open[key];
    if (open.batch == nullptr) {
      open.batch = pools_.acquire(socket, acc_id);
      open.opened_at = sim_.now();
      state.active.push_back(key);
    }
    // Flush-before-append if this record would overflow the batch cap.
    if (open.batch->size_bytes() + record_bytes > cap &&
        !open.batch->empty()) {
      if (!tenants_.can_flush(tenant)) {
        // Batch budget exhausted and the open batch is full: the incoming
        // packet has nowhere legal to go.  Counted quota drop -- never a
        // silent one.
        cycles += rt.packer_per_pkt_cycles;
        metrics_.drop(m, DropSite::kQuota);
        continue;
      }
      cycles += flush_batch(socket, acc_id, std::move(open), pending,
                            FlushReason::kFull, tenant);
      open.batch = pools_.acquire(socket, acc_id);
      open.opened_at = sim_.now();
    }
    if (open.batch->empty()) open.batch->first_pkt_enqueued_at = sim_.now();
    // Scatter-gather append: stage a descriptor, no payload copy until the
    // DMA engine gathers at the submit boundary.
    open.batch->append_sg(m->nf_id(), m);
    metrics_.zero_copy_bytes->add(m->data_len());
    metrics_.ledger.on_stage(m, LedgerStage::kPackerAppend);
    RuntimeMetrics::NfAccCounters& c = metrics_.nf_acc(m->nf_id(), acc_id);
    c.pkts->add(1);
    c.bytes->add(m->data_len());
    cycles += rt.packer_per_pkt_cycles;
  }

  // Flush policy: a batch goes out when full (handled above) or when it
  // ages past the timeout.  The paper's Packer aggregates aggressively to
  // the 6 KB batching size -- that is why 64 B packets see a higher latency
  // than 1500 B ones (V-C) -- and the timeout bounds latency at low load
  // (the adaptive version is the paper's future work, see the batching
  // ablation bench).
  for (std::size_t i = 0; i < state.active.size();) {
    const OpenKey key = state.active[i];
    const AccId acc_id = static_cast<AccId>(key & 0xff);
    const TenantId tenant = static_cast<TenantId>(key >> 8);
    OpenBatch& open = state.open[key];
    const bool have = open.batch != nullptr && !open.batch->empty();
    // Age from the first packet actually enqueued, not from when the slot
    // was opened: an open-but-empty batch holds no packet whose latency
    // the timeout is bounding.  (A non-empty batch always has the stamp --
    // it is set on the empty->non-empty transition.)
    const bool aged =
        have &&
        sim_.now() - open.batch->first_pkt_enqueued_at >= rt.batch_timeout;
    if (aged && !tenants_.can_flush(tenant)) {
      // Over the batch budget: defer, counted.  The batch stays open and
      // flushes on a later sweep once an in-flight batch retires.
      tenants_.note_flush_deferred(tenant);
      did_work = true;  // counted once per poll, so keep polling
      ++i;
      continue;
    }
    if (aged) {
      did_work = true;
      cycles += flush_batch(socket, acc_id, std::move(open), pending,
                            FlushReason::kTimeout, tenant);
      open.batch = nullptr;
      state.active[i] = state.active.back();
      state.active.pop_back();
    } else {
      ++i;
    }
  }

  // DMA doorbells ring once this iteration's packing cycles have elapsed --
  // submitting at iteration start would hide the Packer's cost from the
  // measured packet latency.
  if (!pending.empty()) {
    auto shared = std::make_shared<PendingSubmits>(std::move(pending));
    sim_.schedule_after(cpu.core_clock.cycles(cycles), [this, shared] {
      const bool stages_on = telemetry_.stages.enabled();
      for (auto& [dev, batch] : *shared) {
        // Deferred pack-stage accounting (untimed event context): one
        // record covers every packet in the batch (they all waited from
        // first_pkt_enqueued_at to the flush).
        if (stages_on) {
          telemetry_.stages.record_n(
              telemetry::Stage::kPack,
              batch->flushed_at - batch->first_pkt_enqueued_at,
              static_cast<std::uint64_t>(batch->record_count()));
          telemetry_.recorder.log(
              telemetry::FlightComponent::kPacker, batch->flushed_at,
              telemetry::FlightEventKind::kBatchFlush, batch->hf_name,
              static_cast<std::int16_t>(batch->record_count()),
              static_cast<std::int32_t>(batch->size_bytes()),
              batch->batch_id);
        }
        submit_with_retry(dev, std::move(batch), 0);
      }
    });
  }
  // Adaptive batching keeps spinning: its rate estimate decays on every
  // idle poll.
  if (did_work || rt.adaptive_batching) return {cycles, false};
  // Idle: every later poll finds nothing until send_packets() fills the
  // IBQ (and wakes this core) or an open batch ages into its timeout flush.
  sim::PollResult idle{0, true};
  for (const OpenKey key : state.active) {
    const fpga::DmaBatch* b = state.open[key].batch.get();
    if (b != nullptr && !b->empty()) {
      idle.wake_at =
          std::min(idle.wake_at, b->first_pkt_enqueued_at + rt.batch_timeout);
    }
  }
  return idle;
}

}  // namespace dhl::runtime
