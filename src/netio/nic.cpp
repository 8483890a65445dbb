#include "dhl/netio/nic.hpp"

#include <utility>

#include "dhl/common/check.hpp"
#include "dhl/sim/lcore.hpp"

namespace dhl::netio {

namespace {

/// Arrival events are batched: one event materializes up to this many
/// frames (with exact per-frame timestamps), bounding event-queue load.
constexpr std::uint32_t kArrivalBatch = 32;
/// Cap on the virtual-time span one arrival group may cover; keeps the
/// timestamp-to-enqueue skew (and thus measured-latency distortion) small
/// at low packet rates.
constexpr Picos kMaxArrivalSpan = microseconds(1);

}  // namespace

NicPort::NicPort(sim::Simulator& simulator, NicPortConfig config,
                 MbufPool& rx_pool)
    : sim_{simulator},
      config_{std::move(config)},
      telemetry_{telemetry::ensure(config_.telemetry)},
      rx_pool_{rx_pool},
      // Multi-consumer: several I/O lcores may share one port's RX queue
      // (the 40G ports need two I/O cores, paper V-C).
      rx_queue_{config_.name + ".rxq", config_.rx_queue_size,
                SyncMode::kSingle, SyncMode::kMulti} {
  const telemetry::Labels port_label{{"port", config_.name}};
  telemetry::MetricsRegistry& reg = telemetry_->metrics;
  m_rx_pkts_ = reg.counter("dhl.nic.rx_pkts", port_label);
  m_rx_bytes_ = reg.counter("dhl.nic.rx_bytes", port_label);
  m_rx_drops_ = reg.counter("dhl.nic.rx_drops", port_label);
  m_tx_pkts_ = reg.counter("dhl.nic.tx_pkts", port_label);
  m_tx_bytes_ = reg.counter("dhl.nic.tx_bytes", port_label);
  m_rx_depth_ = reg.gauge("dhl.nic.rx_queue_depth", port_label);
}

void NicPort::start_traffic(TrafficConfig traffic, double offered_fraction) {
  DHL_CHECK(offered_fraction > 0 && offered_fraction <= 1.0);
  factory_.emplace(std::move(traffic));
  offered_fraction_ = offered_fraction;
  generating_ = true;
  ++traffic_epoch_;
  next_arrival_ = sim_.now();
  schedule_arrivals();
}

void NicPort::stop_traffic() {
  generating_ = false;
  ++traffic_epoch_;
}

void NicPort::schedule_arrivals() {
  // Materialize the next group of frames in one event.  The event fires at
  // the arrival time of the group's *last* frame; earlier frames get their
  // true (earlier) timestamps, so latency accounting is exact.
  const std::uint64_t epoch = traffic_epoch_;

  Picos t = next_arrival_;
  std::uint32_t count = 0;
  Picos last = t;
  // Pre-compute the group's frame times using peek (sizes affect spacing).
  // We walk a copy of the spacing logic: gap_i = wire_time(frame_i)/load.
  // Frame lengths are consumed in build(), so we materialize inside the
  // event instead; here we only need the event time, which requires sizes.
  // To keep sizes and times consistent we materialize frames *now* into a
  // staging buffer and enqueue them when the event fires.
  if (free_groups_.empty()) {
    groups_.push_back(std::make_unique<ArrivalGroup>());
    groups_.back()->frames.reserve(kArrivalBatch);
    free_groups_.push_back(groups_.back().get());
  }
  ArrivalGroup* group = free_groups_.back();
  auto& staged = group->frames;
  for (; count < kArrivalBatch; ++count) {
    if (count > 0 && t - next_arrival_ > kMaxArrivalSpan) break;
    Mbuf* m = rx_pool_.alloc();
    if (m == nullptr) {
      // Pool exhausted: count as RX drop and retry this slot next group.
      ++rx_drops_;
      m_rx_drops_->add(1);
      break;
    }
    const std::uint32_t len = factory_->build(*m);
    m->set_port(config_.port_id);
    m->set_rx_timestamp(t);
    staged.push_back(m);
    const Picos line_gap = config_.link.transfer_time(wire_bytes(len));
    last = t;
    if (factory_->config().gap_model) {
      // Workload-supplied arrival process: the hook owns the shaping
      // (ramps, ON/OFF silences) and returns the full gap to the next
      // arrival.
      t += factory_->config().gap_model(t, line_gap);
    } else {
      // Smooth CBR: stretch the inter-frame gap by the offered fraction.
      t += static_cast<Picos>(static_cast<double>(line_gap) /
                              offered_fraction_);
    }
  }
  next_arrival_ = t;

  if (staged.empty()) {
    // RX pool exhausted: retry after a short back-off instead of spinning
    // at the current timestamp.
    next_arrival_ = sim_.now() + microseconds(1);
    sim_.schedule_at(next_arrival_, [this, epoch] {
      if (epoch == traffic_epoch_ && generating_) schedule_arrivals();
    });
    return;
  }

  free_groups_.pop_back();
  group->epoch = epoch;
  sim_.schedule_at(last, [this, group] {
    const bool current = group->epoch == traffic_epoch_;
    for (Mbuf* m : group->frames) {
      if (!current) {
        m->release();
        continue;
      }
      rx_meter_.record_frame(m->data_len());
      m_rx_pkts_->add(1);
      m_rx_bytes_->add(m->data_len());
      if (!rx_queue_.enqueue(m)) {
        ++rx_drops_;
        m_rx_drops_->add(1);
        m->release();
      }
    }
    group->frames.clear();
    free_groups_.push_back(group);
    if (!current) return;
    m_rx_depth_->set(rx_queue_.count());
    for (sim::Lcore* core : rx_waiters_) core->wake();
    if (generating_) schedule_arrivals();
  });
}

void NicPort::remove_rx_waiter(sim::Lcore* core) {
  std::erase(rx_waiters_, core);
}

std::size_t NicPort::rx_burst(Mbuf** out, std::size_t n) {
  return rx_queue_.dequeue_burst({out, n});
}

std::size_t NicPort::tx_burst(Mbuf** pkts, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    Mbuf* m = pkts[i];
    tx_meter_.record_frame(m->data_len());
    m_tx_pkts_->add(1);
    m_tx_bytes_->add(m->data_len());
    if (m->rx_timestamp() != kNoRxTimestamp &&
        sim_.now() >= m->rx_timestamp()) {
      latency_.record(sim_.now() - m->rx_timestamp());
    }
    m->release();
  }
  return n;
}

void NicPort::reset_stats() {
  rx_meter_.reset();
  tx_meter_.reset();
  latency_.reset();
  rx_drops_ = 0;
}

}  // namespace dhl::netio
