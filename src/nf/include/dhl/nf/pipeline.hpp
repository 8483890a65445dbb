#pragma once

// CPU-only NF execution models.
//
// Paper V-B: "the CPU-only version is the pure-software implementation and
// is built based on the pipeline mode offered by Intel DPDK.  In pipeline
// mode, the application is made up of separate I/O cores and worker cores."
//
// Two shapes are provided:
//
//  * RunToCompletionNf -- each core does rx -> process -> tx on its own
//    (DPDK's other canonical model; used for Table I's single-core numbers
//    and the Fig 6 "I/O" baseline).
//  * CpuPipelineNf -- RX I/O core(s) feed a shared ring, worker cores run
//    the (expensive) per-packet function, a TX I/O core drains to the NICs.
//
// The per-packet function does the *real* computation (crypto, matching);
// the cycle cost charged to the worker lcore comes from a calibrated cost
// callback, because wall-clock time of this process is not simulation time.

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dhl/netio/mbuf.hpp"
#include "dhl/netio/nic.hpp"
#include "dhl/netio/ring.hpp"
#include "dhl/sim/lcore.hpp"
#include "dhl/sim/simulator.hpp"
#include "dhl/sim/timing_params.hpp"

namespace dhl::nf {

/// What to do with a packet after processing.
///  kForward -- continue to the next stage (DHL ingress: offload to FPGA).
///  kBypass  -- skip the remaining deep processing and transmit directly
///              (e.g. a packet with no SA match).  Equivalent to kForward
///              in CPU-only models.
///  kDrop    -- free the packet.
enum class Verdict : std::uint8_t { kForward, kBypass, kDrop };

/// Per-packet processing: transform `m` (really), return a verdict.
using PacketFn = std::function<Verdict(netio::Mbuf&)>;
/// Batch processing: one call per dequeued worker burst, filling
/// `verdicts[i]` for `pkts[i]`.  Lets vectorized CPU kernels (multi-lane
/// Aho-Corasick, SIMD CRC) keep their batch shape inside the pipeline
/// worker instead of degrading to one-lane calls.
using BatchPacketFn =
    std::function<void(std::span<netio::Mbuf* const>, std::span<Verdict>)>;
/// Cycle cost the worker lcore is charged for one packet.
using CostFn = std::function<double(const netio::Mbuf&)>;

/// Packets an NF core moves per NIC, ring or OBQ burst.
inline constexpr std::uint32_t kIoBurst = 32;

struct NfStats {
  std::uint64_t rx_pkts = 0;
  std::uint64_t processed = 0;
  std::uint64_t dropped = 0;     // verdict kDrop
  std::uint64_t ring_drops = 0;  // internal ring overflow
  std::uint64_t bad_port_drops = 0;  // TX to a port id the NF doesn't own
  std::uint64_t tx_pkts = 0;
};

/// The NF's port for `port_id`, or nullptr when it owns no such port: the
/// packet must then be counted and dropped, never transmitted on some
/// other port.
netio::NicPort* port_by_id(std::span<netio::NicPort* const> ports,
                           std::uint16_t port_id);

// --- run-to-completion -------------------------------------------------------

struct RunToCompletionConfig {
  std::string name = "nf";
  int socket = 0;
  sim::TimingParams timing;
  std::uint32_t num_cores = 1;
};

class RunToCompletionNf {
 public:
  RunToCompletionNf(sim::Simulator& simulator, RunToCompletionConfig config,
                    std::vector<netio::NicPort*> ports, PacketFn fn,
                    CostFn cost);

  void start();
  void stop();

  const NfStats& stats() const { return stats_; }
  std::vector<sim::Lcore*> cores();

 private:
  sim::PollResult poll(std::size_t core_index);

  sim::Simulator& sim_;
  RunToCompletionConfig config_;
  std::vector<netio::NicPort*> ports_;
  PacketFn fn_;
  CostFn cost_;
  std::vector<std::unique_ptr<sim::Lcore>> cores_;
  /// RX burst scratch shared by the cores' polls (they never interleave).
  std::vector<netio::Mbuf*> burst_;
  NfStats stats_;
};

// --- pipeline mode ------------------------------------------------------------

struct PipelineConfig {
  std::string name = "nf";
  int socket = 0;
  sim::TimingParams timing;
  /// I/O cores: one handles RX for all ports, one handles TX (paper V-C
  /// allocates 2 I/O cores for the 40G NIC).
  std::uint32_t num_workers = 2;
  std::uint32_t ring_size = 4096;
};

class CpuPipelineNf {
 public:
  CpuPipelineNf(sim::Simulator& simulator, PipelineConfig config,
                std::vector<netio::NicPort*> ports, PacketFn fn, CostFn cost);

  /// Process worker bursts through `fn` (one call per dequeued burst)
  /// instead of the per-packet PacketFn.  Per-packet cost charging and the
  /// position-in-burst latency stagger are unchanged -- only the compute
  /// call is batched.  Call before start().
  void set_batch_fn(BatchPacketFn fn) { batch_fn_ = std::move(fn); }

  void start();
  void stop();

  const NfStats& stats() const { return stats_; }
  std::vector<sim::Lcore*> cores();
  std::uint32_t total_cores() const {
    return 2 + config_.num_workers;  // RX io + TX io + workers
  }

 private:
  sim::PollResult rx_io_poll();
  sim::PollResult tx_io_poll();
  sim::PollResult worker_poll();

  sim::Simulator& sim_;
  PipelineConfig config_;
  std::vector<netio::NicPort*> ports_;
  PacketFn fn_;
  BatchPacketFn batch_fn_;
  CostFn cost_;
  netio::MbufRing rx_ring_;
  netio::MbufRing tx_ring_;
  std::unique_ptr<sim::Lcore> rx_io_core_;
  std::unique_ptr<sim::Lcore> tx_io_core_;
  std::vector<std::unique_ptr<sim::Lcore>> workers_;
  /// Burst scratch shared by the three polls (they never interleave),
  /// plus the worker's per-burst verdicts.
  std::vector<netio::Mbuf*> burst_;
  std::vector<Verdict> verdicts_;
  NfStats stats_;
};

}  // namespace dhl::nf
