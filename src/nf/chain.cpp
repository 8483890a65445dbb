#include "dhl/nf/chain.hpp"

#include "dhl/common/check.hpp"
#include "dhl/common/log.hpp"
#include "dhl/fpga/chain_module.hpp"

namespace dhl::nf {

using netio::Mbuf;

namespace {

/// Packets an NF core moves per NIC, ring or OBQ burst.
constexpr std::uint32_t kIoBurst = 32;

/// The port among `ports` with id `port_id`, or nullptr.
netio::NicPort* port_by_id(const std::vector<netio::NicPort*>& ports,
                           std::uint16_t port_id) {
  for (netio::NicPort* p : ports) {
    if (p->port_id() == port_id) return p;
  }
  return nullptr;
}

}  // namespace

ChainNf::ChainNf(sim::Simulator& simulator, ChainConfig config,
                 std::vector<netio::NicPort*> ports,
                 runtime::DhlRuntime* runtime, std::vector<ChainStage> stages)
    : sim_{simulator},
      config_{std::move(config)},
      ports_{std::move(ports)},
      runtime_{runtime},
      stages_{std::move(stages)} {
  DHL_CHECK(!ports_.empty());
  DHL_CHECK(!stages_.empty());
  DHL_CHECK_MSG(stages_.size() < 0xffff, "too many stages");

  bool any_offload = false;
  for (const ChainStage& s : stages_) any_offload |= s.is_offload();
  DHL_CHECK_MSG(!any_offload || runtime_ != nullptr,
                "offload stages require a DHL runtime");
  DHL_CHECK_MSG(config_.layout != CoreLayout::kPipeline || !any_offload,
                "the pipeline layout runs CPU stages only");
  DHL_CHECK_MSG(config_.workers >= 1, "a chain needs at least one worker");
  // Several ingress cores only where none drains the OBQ.
  DHL_CHECK_MSG(config_.workers == 1 ||
                    config_.layout == CoreLayout::kPipeline ||
                    (config_.layout == CoreLayout::kSplit && !any_offload),
                "several ingress cores need a split chain without offloads");

  handles_.resize(stages_.size());
  seg_at_.assign(stages_.size(), -1);
  burst_.resize(kIoBurst);
  if (runtime_ != nullptr) {
    nf_id_ = DHL_register(*runtime_, config_.name, config_.socket,
                          config_.tenant);
    obq_ = DHL_get_private_OBQ(*runtime_, nf_id_);
    bad_port_counter_ = runtime_->telemetry().metrics.counter(
        "dhl.chain.bad_port_drops", {{"nf", config_.name}});
    for (std::size_t i = 0; i < stages_.size(); ++i) {
      if (!stages_[i].is_offload()) continue;
      handles_[i] =
          DHL_search_by_name(*runtime_, stages_[i].hf_name, config_.socket);
      DHL_CHECK_MSG(handles_[i].valid(), "hardware function '"
                                             << stages_[i].hf_name
                                             << "' unavailable");
      DHL_acc_configure(*runtime_, handles_[i], stages_[i].acc_config);
    }
    if (config_.fuse) compose_segments();
  }

  const auto add_core = [this](const std::string& suffix,
                               sim::Lcore::PollFn poll) {
    cores_.push_back(std::make_unique<sim::Lcore>(
        sim_, config_.name + suffix, config_.timing.cpu.core_clock,
        config_.socket));
    cores_.back()->set_idle_poll_cycles(config_.timing.cpu.idle_poll_cycles);
    cores_.back()->set_poll(std::move(poll));
    return cores_.back().get();
  };
  const auto wake_on_rx = [this](sim::Lcore* core) {
    for (netio::NicPort* port : ports_) port->add_rx_waiter(core);
  };
  // Idle polls park their core; NIC arrivals wake the ingress side, OBQ
  // deliveries the egress side, and the pipeline's ring enqueues its
  // workers and TX core.
  switch (config_.layout) {
    case CoreLayout::kSplit:
      for (std::size_t c = 0; c < config_.workers; ++c) {
        const std::size_t first = c % ports_.size();
        wake_on_rx(add_core(".in" + std::to_string(c),
                            [this, first](sim::Lcore&) {
                              return ingress_poll(first, ports_.size());
                            }));
      }
      if (any_offload) {
        runtime_->set_obq_consumer(
            nf_id_,
            add_core(".out", [this](sim::Lcore&) { return egress_poll(); }));
      }
      break;
    case CoreLayout::kPerPort:
      // Core 0 drains the single-consumer OBQ after its own port's ingress;
      // both halves are offset from the poll's start, and the core parks
      // only when both were idle.
      for (std::size_t p = 0; p < ports_.size(); ++p) {
        const bool also_egress = any_offload && p == 0;
        ports_[p]->add_rx_waiter(add_core(
            ".in" + std::to_string(p), [this, p, also_egress](sim::Lcore&) {
              sim::PollResult r = ingress_poll(p, 1);
              if (also_egress) {
                const sim::PollResult out = egress_poll();
                r.cycles += out.cycles;
                r.park = r.park && out.park;
              }
              return r;
            }));
      }
      if (any_offload) runtime_->set_obq_consumer(nf_id_, cores_[0].get());
      break;
    case CoreLayout::kPipeline:
      rx_ring_ = std::make_unique<netio::MbufRing>(
          config_.name + ".rx_ring", config_.ring_size,
          netio::SyncMode::kSingle, netio::SyncMode::kMulti);
      tx_ring_ = std::make_unique<netio::MbufRing>(
          config_.name + ".tx_ring", config_.ring_size,
          netio::SyncMode::kMulti, netio::SyncMode::kSingle);
      wake_on_rx(
          add_core(".io_rx", [this](sim::Lcore&) { return rx_io_poll(); }));
      add_core(".io_tx", [this](sim::Lcore&) { return tx_io_poll(); });
      for (std::size_t w = 0; w < config_.workers; ++w) {
        add_core(".worker" + std::to_string(w),
                 [this](sim::Lcore&) { return worker_poll(); });
      }
      break;
  }
}

ChainNf::~ChainNf() {
  for (const auto& core : cores_) {
    for (netio::NicPort* port : ports_) port->remove_rx_waiter(core.get());
  }
  if (obq_ != nullptr) runtime_->set_obq_consumer(nf_id_, nullptr);
}

void ChainNf::compose_segments() {
  // Maximal runs of >= 2 consecutive offload stages whose intermediates
  // carry no post callback (a fused record returns only the LAST stage's
  // result word, so intermediate results must be unobserved).
  std::size_t i = 0;
  while (i < stages_.size()) {
    if (!stages_[i].is_offload()) {
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j + 1 < stages_.size() && stages_[j + 1].is_offload() &&
           stages_[j].post == nullptr) {
      ++j;
    }
    if (j == i) {
      ++i;
      continue;
    }
    FusedSegment seg;
    seg.first = i;
    seg.last = j;
    std::vector<std::string> hfs;
    std::vector<std::vector<std::uint8_t>> per_stage;
    for (std::size_t k = i; k <= j; ++k) {
      seg.chain_name += (k == i ? "" : "+") + stages_[k].hf_name;
      hfs.push_back(stages_[k].hf_name);
      per_stage.push_back(stages_[k].acc_config);
    }
    seg.config = fpga::encode_chain_config(per_stage);
    seg.handle =
        DHL_compose_chain(*runtime_, seg.chain_name, hfs, config_.socket);
    if (seg.handle.valid()) {
      if (!seg.config.empty()) {
        DHL_acc_configure(*runtime_, seg.handle, seg.config);
      }
      seg_at_[i] = static_cast<int>(segments_.size());
      segments_.push_back(std::move(seg));
    } else {
      // Composition refused (e.g. the fused footprint exceeds one PR
      // region): stay on per-stage round trips for this run.
      DHL_WARN("nf", config_.name << ": chain '" << seg.chain_name
                                  << "' not fused; using per-stage offloads");
    }
    i = j + 1;
  }
}

bool ChainNf::ready() const {
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    if (stages_[i].is_offload() && !runtime_->acc_ready(handles_[i])) {
      return false;
    }
  }
  for (const FusedSegment& seg : segments_) {
    if (seg.handle.valid() && !runtime_->acc_ready(seg.handle)) return false;
  }
  return true;
}

void ChainNf::start() {
  for (auto& c : cores_) c->start();
}

void ChainNf::stop() {
  for (auto& c : cores_) c->stop();
}

std::vector<sim::Lcore*> ChainNf::cores() {
  std::vector<sim::Lcore*> out;
  for (auto& c : cores_) out.push_back(c.get());
  return out;
}

runtime::AccHandle& ChainNf::stage_handle_fresh(std::size_t i) {
  runtime::AccHandle& h = handles_[i];
  const runtime::HwFunctionEntry* e =
      runtime_->function_table().entry_for(h.acc_id);
  if (e == nullptr || e->hf_name != stages_[i].hf_name) {
    // The daemon unloaded the function (slot empty) or recycled the acc_id
    // to a different hardware function while we held the handle.  Re-resolve
    // -- search_by_name reloads from the module database -- and re-apply
    // our configuration, which the unload discarded.
    h = DHL_search_by_name(*runtime_, stages_[i].hf_name, config_.socket);
    if (h.valid()) {
      DHL_acc_configure(*runtime_, h, stages_[i].acc_config);
    }
    ++stats_.handle_refreshes;
  }
  return h;
}

bool ChainNf::segment_usable(FusedSegment& seg) {
  if (!seg.handle.valid()) return false;
  const runtime::HwFunctionEntry* e =
      runtime_->function_table().entry_for(seg.handle.acc_id);
  if (e == nullptr || e->hf_name != seg.chain_name) {
    // Stale chain handle: the composed bitstream stays registered, so this
    // reloads (or re-shares) a replica.
    seg.handle =
        DHL_compose_chain(*runtime_, seg.chain_name, {}, config_.socket);
    if (seg.handle.valid() && !seg.config.empty()) {
      DHL_acc_configure(*runtime_, seg.handle, seg.config);
    }
    ++stats_.handle_refreshes;
    if (!seg.handle.valid()) return false;
  }
  // Mid-PR (e.g. just re-resolved): per-stage round trips serve meanwhile.
  return runtime_->acc_ready(seg.handle);
}

std::size_t ChainNf::run_cpu(Mbuf* m, std::size_t stage, double& cycles) {
  for (std::size_t i = stage; i < stages_.size(); ++i) {
    ChainStage& s = stages_[i];
    if (s.is_offload()) return i;
    cycles += s.cost(*m);
    const Verdict v = s.fn(*m);
    if (v == Verdict::kDrop) {
      ++stats_.prep_drops;
      ++stats_.dropped;
      m->release();
      return kDropped;
    }
    if (v == Verdict::kBypass) break;  // skip the rest of the chain
  }
  return stages_.size();
}

void ChainNf::run_from(Mbuf* m, std::size_t stage, double& cycles) {
  const std::size_t i = run_cpu(m, stage, cycles);
  if (i == kDropped) return;
  if (i == stages_.size()) {
    cycles += config_.timing.cpu.nic_rxtx_per_pkt_cycles;
    transmit_at(m, cycles);
    return;
  }
  // Fused run starting here: one round trip covers stages i..last and
  // resumes past the whole run.
  if (seg_at_[i] >= 0) {
    FusedSegment& seg = segments_[static_cast<std::size_t>(seg_at_[i])];
    if (segment_usable(seg)) {
      m->set_user_tag(static_cast<std::uint16_t>(seg.last + 1));
      m->set_acc_id(seg.handle.acc_id);
      ++stats_.offloads;
      ++stats_.fused_offloads;
      to_send_.push_back(m);
      return;
    }
  }
  // Ship to the FPGA; resume at stage i+1 when it returns.
  m->set_user_tag(static_cast<std::uint16_t>(i + 1));
  m->set_acc_id(stage_handle_fresh(i).acc_id);
  ++stats_.offloads;
  to_send_.push_back(m);
}

void ChainNf::send_at(double cycles) {
  if (to_send_.empty()) return;
  if (free_send_bufs_.empty()) {
    send_bufs_.push_back(std::make_unique<std::vector<Mbuf*>>());
    free_send_bufs_.push_back(send_bufs_.back().get());
  }
  std::vector<Mbuf*>* pkts = free_send_bufs_.back();
  free_send_bufs_.pop_back();
  pkts->swap(to_send_);
  sim_.schedule_after(
      config_.timing.cpu.core_clock.cycles(cycles), [this, pkts] {
        // Admission stamps our nf_id and charges the tenant quota.
        const std::size_t sent =
            DHL_send_packets(*runtime_, nf_id_, pkts->data(), pkts->size());
        for (std::size_t i = sent; i < pkts->size(); ++i) {
          ++stats_.ibq_drops;
          (*pkts)[i]->release();
        }
        pkts->clear();
        free_send_bufs_.push_back(pkts);
      });
}

void ChainNf::transmit_at(Mbuf* m, double cycles) {
  sim_.schedule_after(config_.timing.cpu.core_clock.cycles(cycles),
                      [this, m] { transmit(m); });
}

bool ChainNf::transmit(Mbuf* m) {
  netio::NicPort* out = port_by_id(ports_, m->port());
  if (out == nullptr) {
    // A stage steered the packet to a port this NF doesn't own.
    ++stats_.bad_port_drops;
    if (bad_port_counter_ != nullptr) bad_port_counter_->add(1);
    m->release();
    return false;
  }
  out->tx_burst(&m, 1);
  ++stats_.completed;
  return true;
}

sim::PollResult ChainNf::ingress_poll(std::size_t first, std::size_t count) {
  const auto& cpu = config_.timing.cpu;
  double cycles = 0;
  bool idle = true;
  std::size_t p = first;
  for (std::size_t k = 0; k < count; ++k, ++p) {
    if (p == ports_.size()) p = 0;
    const std::size_t n = ports_[p]->rx_burst(burst_.data(), burst_.size());
    if (n == 0) continue;
    idle = false;
    stats_.rx_pkts += n;
    cycles += cpu.nic_rxtx_fixed_cycles +
              cpu.nic_rxtx_per_pkt_cycles * static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i) run_from(burst_[i], 0, cycles);
    if (!to_send_.empty()) {
      // This port's offloads reach the IBQ once its prep cycles and the
      // ring op have elapsed (prep time is part of their latency).
      cycles += cpu.ring_op_fixed_cycles +
                cpu.ring_op_per_pkt_cycles *
                    static_cast<double>(to_send_.size());
      send_at(cycles);
    }
  }
  return {cycles, idle};
}

sim::PollResult ChainNf::egress_poll() {
  const auto& cpu = config_.timing.cpu;
  const std::size_t n =
      DHL_receive_packets(*obq_, burst_.data(), burst_.size());
  if (n == 0) return {0, true};
  double cycles = cpu.ring_op_fixed_cycles +
                  cpu.ring_op_per_pkt_cycles * static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    Mbuf* m = burst_[i];
    const std::size_t resume = m->user_tag();
    DHL_CHECK_MSG(resume >= 1 && resume <= stages_.size(),
                  "returned packet has a bogus resume stage");
    ChainStage& s = stages_[resume - 1];
    // Post-processing of the offload stage that just completed (for a
    // fused run, the run's last stage).
    if (s.post_cost) cycles += s.post_cost(*m);
    if (s.post && s.post(*m) == Verdict::kDrop) {
      ++stats_.post_drops;
      ++stats_.dropped;
      m->release();
      continue;
    }
    run_from(m, resume, cycles);
  }
  send_at(cycles);
  cycles += cpu.nic_rxtx_fixed_cycles;
  return {cycles, false};
}

// The three pipeline polls act at the start of the poll (see chain.hpp).

sim::PollResult ChainNf::rx_io_poll() {
  const auto& cpu = config_.timing.cpu;
  double cycles = 0;
  bool idle = true;
  Mbuf** pkts = burst_.data();
  for (netio::NicPort* port : ports_) {
    const std::size_t n = port->rx_burst(pkts, kIoBurst);
    if (n == 0) continue;
    idle = false;
    stats_.rx_pkts += n;
    cycles += cpu.nic_rxtx_fixed_cycles +
              cpu.nic_rxtx_per_pkt_cycles * static_cast<double>(n);
    const std::size_t queued = rx_ring_->enqueue_burst({pkts, n});
    cycles += cpu.ring_op_fixed_cycles +
              cpu.ring_op_per_pkt_cycles * static_cast<double>(queued);
    for (std::size_t i = queued; i < n; ++i) {
      ++stats_.ring_drops;
      pkts[i]->release();
    }
  }
  // Every worker may take the new packets; the first in line does.
  if (!idle) {
    for (std::size_t w = 2; w < cores_.size(); ++w) cores_[w]->wake();
  }
  return {cycles, idle};
}

sim::PollResult ChainNf::worker_poll() {
  const auto& cpu = config_.timing.cpu;
  const Frequency clock = cpu.core_clock;
  Mbuf** pkts = burst_.data();
  const std::size_t n = rx_ring_->dequeue_burst({pkts, kIoBurst});
  if (n == 0) return {0, true};
  double cycles = cpu.ring_op_fixed_cycles +
                  cpu.ring_op_per_pkt_cycles * static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    Mbuf* m = pkts[i];
    if (run_cpu(m, 0, cycles) == kDropped) continue;
    cycles += cpu.ring_op_per_pkt_cycles;
    // The packet becomes visible to the TX I/O core only after the worker
    // cycles spent on it (and its predecessors in the burst) have elapsed:
    // the position-in-burst wait is real latency.
    sim_.schedule_after(clock.cycles(cycles), [this, m] {
      if (!tx_ring_->enqueue(m)) {
        ++stats_.ring_drops;
        m->release();
        return;
      }
      cores_[1]->wake();  // the TX I/O core
    });
  }
  return {cycles, false};
}

sim::PollResult ChainNf::tx_io_poll() {
  const auto& cpu = config_.timing.cpu;
  Mbuf** pkts = burst_.data();
  const std::size_t n = tx_ring_->dequeue_burst({pkts, kIoBurst});
  if (n == 0) return {0, true};
  double cycles = cpu.ring_op_fixed_cycles +
                  cpu.ring_op_per_pkt_cycles * static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (transmit(pkts[i])) cycles += cpu.nic_rxtx_per_pkt_cycles;
  }
  cycles += cpu.nic_rxtx_fixed_cycles;
  return {cycles, false};
}

}  // namespace dhl::nf
