#pragma once

// The benchmark's three workloads, each assembled over the real testbed
// stack: netio NIC/pktgen -> nf shell -> dhl runtime -> fpga device/DMA ->
// accel modules, all on the sim event core.  A Rig is one trial's testbed:
// constructing it is the timed set-up (pools, AC automaton, runtime,
// simulated PR load, chain composition); the caller then offers traffic.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dhl/nf/testbed.hpp"

namespace perfbench {

inline const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames{"ipsec-64", "nids-1500",
                                               "shared-chain-imix"};
  return kNames;
}

struct RigOptions {
  std::string workload;
  std::uint64_t seed = 1;
  /// Capacity phase: CBR at 100% of line rate on every port.  Otherwise
  /// the fixed-rate phase: an open-loop arrival process at the workload's
  /// stated offered fraction of line rate.
  bool capacity = false;
  /// Build the runtime over the proxy database that opens accel spans.
  bool traced = false;
};

/// Counted drops and refusals at the NF shells.
struct NfDrops {
  std::uint64_t ibq_refusals = 0;  ///< refused by quota admission / full IBQ
  std::uint64_t verdict = 0;       ///< prep/post/stage verdict drops, bad port
};

class Rig {
 public:
  explicit Rig(const RigOptions& options);
  ~Rig();
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  dhl::nf::Testbed& testbed();
  dhl::runtime::DhlRuntime& runtime();
  std::vector<dhl::netio::NicPort*> ports();

  /// Virtual warm-up and measured window for this phase.
  dhl::Picos warmup() const;
  dhl::Picos window() const;

  void start_traffic();
  void stop_traffic();

  /// Exact NIC-to-NIC latency.  The NIC's own histogram is log-binned
  /// (2.4% bins), so the benchmark times packets itself: the post step
  /// queues each forwarded packet's RX stamp per port, egress keeps that
  /// order, and observe_tx() -- called after every simulator event of the
  /// window -- pairs each newly transmitted frame with the oldest stamp.
  /// begin_window() discards frames sent before the window and resets the
  /// ports' statistics.
  void begin_window();
  void observe_tx();
  /// Latencies of the frames transmitted since begin_window(), in ps.
  const std::vector<dhl::Picos>& tx_latencies() const;

  /// Input-traffic wire bytes of the frames `port` delivered since its
  /// last stats reset (NFs may grow frames; throughput counts the input).
  double delivered_input_wire_bytes(const dhl::netio::NicPort& port) const;

  NfDrops nf_drops() const;
  /// Packets still inside the pipeline: NIC RX queues, IBQs, batches and
  /// completions, OBQs.
  std::uint64_t in_flight();

  /// Output correctness after a drain: sampled delivered bytes against the
  /// software reference, plus the workload's ground-truth check.  Returns
  /// an empty string when everything matches, the first failure otherwise.
  std::string verify();
  std::size_t samples_checked() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace perfbench
