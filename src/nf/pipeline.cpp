#include "dhl/nf/pipeline.hpp"

#include <algorithm>

#include "dhl/common/check.hpp"

namespace dhl::nf {

using netio::Mbuf;

netio::NicPort* port_by_id(std::span<netio::NicPort* const> ports,
                           std::uint16_t port_id) {
  for (netio::NicPort* p : ports) {
    if (p->port_id() == port_id) return p;
  }
  return nullptr;
}

// --- RunToCompletionNf ---------------------------------------------------------

RunToCompletionNf::RunToCompletionNf(sim::Simulator& simulator,
                                     RunToCompletionConfig config,
                                     std::vector<netio::NicPort*> ports,
                                     PacketFn fn, CostFn cost)
    : sim_{simulator},
      config_{std::move(config)},
      ports_{std::move(ports)},
      fn_{std::move(fn)},
      cost_{std::move(cost)},
      burst_(kIoBurst) {
  DHL_CHECK(!ports_.empty());
  DHL_CHECK(config_.num_cores > 0);
  for (std::uint32_t i = 0; i < config_.num_cores; ++i) {
    auto core = std::make_unique<sim::Lcore>(
        sim_, config_.name + ".core" + std::to_string(i),
        config_.timing.cpu.core_clock, config_.socket);
    core->set_idle_poll_cycles(config_.timing.cpu.idle_poll_cycles);
    core->set_poll([this, i](sim::Lcore&) { return poll(i); });
    cores_.push_back(std::move(core));
  }
}

void RunToCompletionNf::start() {
  for (auto& c : cores_) c->start();
}
void RunToCompletionNf::stop() {
  for (auto& c : cores_) c->stop();
}

std::vector<sim::Lcore*> RunToCompletionNf::cores() {
  std::vector<sim::Lcore*> out;
  for (auto& c : cores_) out.push_back(c.get());
  return out;
}

sim::PollResult RunToCompletionNf::poll(std::size_t core_index) {
  const auto& cpu = config_.timing.cpu;
  const Frequency clock = config_.timing.cpu.core_clock;
  double cycles = 0;
  // Cores round-robin over ports so several cores can serve one fat port
  // and one core can serve several thin ones.
  for (std::size_t p = 0; p < ports_.size(); ++p) {
    netio::NicPort* port =
        ports_[(core_index + p) % ports_.size()];
    const std::size_t n = port->rx_burst(burst_.data(), burst_.size());
    if (n == 0) continue;
    cycles += cpu.nic_rxtx_fixed_cycles;
    stats_.rx_pkts += n;
    for (std::size_t i = 0; i < n; ++i) {
      Mbuf* m = burst_[i];
      cycles += cpu.nic_rxtx_per_pkt_cycles;  // RX half
      cycles += cost_(*m);
      const Verdict v = fn_(*m);
      ++stats_.processed;
      if (v == Verdict::kDrop) {
        ++stats_.dropped;
        m->release();
        continue;
      }
      // Transmit through the port the packet names (the NIC stamps the RX
      // port; the function may steer it elsewhere).
      netio::NicPort* out = port_by_id(ports_, m->port());
      if (out == nullptr) {
        ++stats_.bad_port_drops;
        m->release();
        continue;
      }
      cycles += cpu.nic_rxtx_per_pkt_cycles;  // TX half
      // The packet leaves the NIC once the cycles spent so far have
      // elapsed; transmitting "now" would hide processing time from the
      // latency measurement.
      sim_.schedule_after(clock.cycles(cycles), [this, out, m] {
        Mbuf* pkt = m;
        out->tx_burst(&pkt, 1);
        ++stats_.tx_pkts;
      });
    }
  }
  return {cycles, false};
}

// --- CpuPipelineNf --------------------------------------------------------------

CpuPipelineNf::CpuPipelineNf(sim::Simulator& simulator, PipelineConfig config,
                             std::vector<netio::NicPort*> ports, PacketFn fn,
                             CostFn cost)
    : sim_{simulator},
      config_{std::move(config)},
      ports_{std::move(ports)},
      fn_{std::move(fn)},
      cost_{std::move(cost)},
      rx_ring_{config_.name + ".rx_ring", config_.ring_size,
               netio::SyncMode::kSingle, netio::SyncMode::kMulti},
      tx_ring_{config_.name + ".tx_ring", config_.ring_size,
               netio::SyncMode::kMulti, netio::SyncMode::kSingle},
      burst_(kIoBurst),
      verdicts_(kIoBurst) {
  DHL_CHECK(!ports_.empty());
  DHL_CHECK(config_.num_workers > 0);
  const Frequency clock = config_.timing.cpu.core_clock;
  rx_io_core_ = std::make_unique<sim::Lcore>(sim_, config_.name + ".io_rx",
                                             clock, config_.socket);
  rx_io_core_->set_poll([this](sim::Lcore&) { return rx_io_poll(); });
  tx_io_core_ = std::make_unique<sim::Lcore>(sim_, config_.name + ".io_tx",
                                             clock, config_.socket);
  tx_io_core_->set_poll([this](sim::Lcore&) { return tx_io_poll(); });
  for (std::uint32_t i = 0; i < config_.num_workers; ++i) {
    auto w = std::make_unique<sim::Lcore>(
        sim_, config_.name + ".worker" + std::to_string(i), clock,
        config_.socket);
    w->set_poll([this](sim::Lcore&) { return worker_poll(); });
    workers_.push_back(std::move(w));
  }
  for (auto* c : cores()) {
    c->set_idle_poll_cycles(config_.timing.cpu.idle_poll_cycles);
  }
}

void CpuPipelineNf::start() {
  rx_io_core_->start();
  tx_io_core_->start();
  for (auto& w : workers_) w->start();
}

void CpuPipelineNf::stop() {
  rx_io_core_->stop();
  tx_io_core_->stop();
  for (auto& w : workers_) w->stop();
}

std::vector<sim::Lcore*> CpuPipelineNf::cores() {
  std::vector<sim::Lcore*> out{rx_io_core_.get(), tx_io_core_.get()};
  for (auto& w : workers_) out.push_back(w.get());
  return out;
}

sim::PollResult CpuPipelineNf::rx_io_poll() {
  const auto& cpu = config_.timing.cpu;
  double cycles = 0;
  Mbuf** pkts = burst_.data();
  for (netio::NicPort* port : ports_) {
    const std::size_t n = port->rx_burst(pkts, kIoBurst);
    if (n == 0) continue;
    stats_.rx_pkts += n;
    cycles += cpu.nic_rxtx_fixed_cycles +
              cpu.nic_rxtx_per_pkt_cycles * static_cast<double>(n);
    const std::size_t queued = rx_ring_.enqueue_burst({pkts, n});
    cycles += cpu.ring_op_fixed_cycles +
              cpu.ring_op_per_pkt_cycles * static_cast<double>(queued);
    for (std::size_t i = queued; i < n; ++i) {
      ++stats_.ring_drops;
      pkts[i]->release();
    }
  }
  return {cycles, false};
}

sim::PollResult CpuPipelineNf::tx_io_poll() {
  const auto& cpu = config_.timing.cpu;
  double cycles = 0;
  Mbuf** pkts = burst_.data();
  const std::size_t n = tx_ring_.dequeue_burst({pkts, kIoBurst});
  if (n > 0) {
    cycles += cpu.ring_op_fixed_cycles +
              cpu.ring_op_per_pkt_cycles * static_cast<double>(n);
    // Return each packet through the port it names; a port this NF does
    // not own is a counted drop, never a transmit on some other port.
    for (std::size_t i = 0; i < n; ++i) {
      netio::NicPort* port = port_by_id(ports_, pkts[i]->port());
      if (port == nullptr) {
        ++stats_.bad_port_drops;
        pkts[i]->release();
        continue;
      }
      cycles += cpu.nic_rxtx_per_pkt_cycles;
      port->tx_burst(&pkts[i], 1);
      ++stats_.tx_pkts;
    }
    cycles += cpu.nic_rxtx_fixed_cycles;
  }
  return {cycles, false};
}

sim::PollResult CpuPipelineNf::worker_poll() {
  const auto& cpu = config_.timing.cpu;
  const Frequency clock = config_.timing.cpu.core_clock;
  double cycles = 0;
  Mbuf** pkts = burst_.data();
  const std::size_t n = rx_ring_.dequeue_burst({pkts, kIoBurst});
  if (n == 0) return {0, false};
  cycles += cpu.ring_op_fixed_cycles +
            cpu.ring_op_per_pkt_cycles * static_cast<double>(n);
  // Batched compute runs up front (the vectorized kernels want the whole
  // burst at once); the cost/latency accounting below stays per-packet.
  const std::span<Verdict> verdicts{verdicts_.data(), n};
  if (batch_fn_) {
    std::fill(verdicts.begin(), verdicts.end(), Verdict::kForward);
    batch_fn_({pkts, n}, verdicts);
  }
  for (std::size_t i = 0; i < n; ++i) {
    Mbuf* m = pkts[i];
    cycles += cost_(*m);
    const Verdict v = batch_fn_ ? verdicts[i] : fn_(*m);
    ++stats_.processed;
    if (v == Verdict::kDrop) {
      ++stats_.dropped;
      m->release();
      continue;
    }
    cycles += cpu.ring_op_per_pkt_cycles;
    // The packet becomes visible to the TX I/O core only after the worker
    // cycles spent on it (and its predecessors in the burst) have elapsed --
    // the position-in-burst wait is real latency.
    sim_.schedule_after(clock.cycles(cycles), [this, m] {
      if (!tx_ring_.enqueue(m)) {
        ++stats_.ring_drops;
        m->release();
      }
    });
  }
  return {cycles, false};
}

}  // namespace dhl::nf
