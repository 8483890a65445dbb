#pragma once

// Simulated NIC port.
//
// Models one port of an Intel XL710 (40 GbE) or X520 (10 GbE): ingress
// traffic arrives at line rate (or a configured offered load) from an
// attached FrameFactory into a finite RX queue; the application polls
// rx_burst()/tx_burst() exactly like DPDK's rte_eth_rx_burst/tx_burst.
// Frames that arrive while the RX queue is full are dropped and counted --
// this back-pressure is what turns a slow worker into a low measured
// throughput, exactly as on the real testbed.
//
// TX accounting: when the application transmits a frame, the port records
// wire throughput and end-to-end latency (now - rx_timestamp); the paper
// measures latency the same way (V-C: timestamp attached at RX, checked
// before the packet leaves the NIC).

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dhl/common/units.hpp"
#include "dhl/netio/mbuf.hpp"
#include "dhl/netio/mempool.hpp"
#include "dhl/netio/pktgen.hpp"
#include "dhl/netio/ring.hpp"
#include "dhl/sim/simulator.hpp"
#include "dhl/sim/stats.hpp"
#include "dhl/telemetry/telemetry.hpp"

namespace dhl::sim {
class Lcore;
}  // namespace dhl::sim

namespace dhl::netio {

struct NicPortConfig {
  std::string name = "port0";
  std::uint16_t port_id = 0;
  Bandwidth link = Bandwidth::gbps(10);
  int socket = 0;
  std::uint32_t rx_queue_size = 4096;

  /// Shared telemetry context; when null the port creates a private one.
  telemetry::TelemetryPtr telemetry;
};

class NicPort {
 public:
  NicPort(sim::Simulator& simulator, NicPortConfig config, MbufPool& rx_pool);

  const std::string& name() const { return config_.name; }
  std::uint16_t port_id() const { return config_.port_id; }
  Bandwidth link() const { return config_.link; }
  int socket() const { return config_.socket; }

  /// Start generating ingress traffic: smooth CBR at `offered_fraction`
  /// of line rate (1.0 = saturate the link).
  ///
  /// Any other arrival process (ON/OFF bursts, ramps, Poisson) is a
  /// `traffic.gap_model`: the hook returns every inter-arrival gap and
  /// offered_fraction is ignored.
  void start_traffic(TrafficConfig traffic, double offered_fraction = 1.0);
  void stop_traffic();
  bool traffic_running() const { return generating_; }
  const FrameFactory* factory() const { return factory_ ? &*factory_ : nullptr; }

  /// Poll up to `n` received frames.  DPDK rte_eth_rx_burst semantics.
  std::size_t rx_burst(Mbuf** out, std::size_t n);

  /// Lcores polling this port's RX queue that may park: each arrival group
  /// wakes them.  A waiter must be removed before it is destroyed.
  void add_rx_waiter(sim::Lcore* core) { rx_waiters_.push_back(core); }
  void remove_rx_waiter(sim::Lcore* core);

  /// Transmit `n` frames.  Consumes (frees) the mbufs; records TX meter and
  /// latency.  Always accepts (TX is never the experiment bottleneck).
  std::size_t tx_burst(Mbuf** pkts, std::size_t n);

  // --- statistics ------------------------------------------------------------
  const sim::ThroughputMeter& rx_meter() const { return rx_meter_; }
  const sim::ThroughputMeter& tx_meter() const { return tx_meter_; }
  const sim::LatencyHistogram& latency() const { return latency_; }
  std::uint64_t rx_drops() const { return rx_drops_; }
  std::uint64_t rx_queue_depth() const { return rx_queue_.count(); }

  /// Clear counters (used to discard warm-up).  Registry counters are
  /// cumulative (Prometheus semantics) and are not reset here.
  void reset_stats();

 private:
  /// Frames materialized for one arrival event, recycled through
  /// free_groups_ so the steady state allocates nothing.
  struct ArrivalGroup {
    std::uint64_t epoch = 0;
    std::vector<Mbuf*> frames;  // RX-timestamped, in arrival order
  };

  void schedule_arrivals();

  sim::Simulator& sim_;
  NicPortConfig config_;
  telemetry::TelemetryPtr telemetry_;
  MbufPool& rx_pool_;
  MbufRing rx_queue_;

  // dhl.nic.* instruments with {port=name}.
  telemetry::Counter* m_rx_pkts_ = nullptr;
  telemetry::Counter* m_rx_bytes_ = nullptr;
  telemetry::Counter* m_rx_drops_ = nullptr;
  telemetry::Counter* m_tx_pkts_ = nullptr;
  telemetry::Counter* m_tx_bytes_ = nullptr;
  telemetry::Gauge* m_rx_depth_ = nullptr;

  std::vector<sim::Lcore*> rx_waiters_;
  std::vector<std::unique_ptr<ArrivalGroup>> groups_;  // owns every group
  std::vector<ArrivalGroup*> free_groups_;

  std::optional<FrameFactory> factory_;
  double offered_fraction_ = 1.0;
  bool generating_ = false;
  std::uint64_t traffic_epoch_ = 0;
  Picos next_arrival_ = 0;

  sim::ThroughputMeter rx_meter_;
  sim::ThroughputMeter tx_meter_;
  sim::LatencyHistogram latency_;
  std::uint64_t rx_drops_ = 0;
};

}  // namespace dhl::netio
