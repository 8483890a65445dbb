#pragma once

// The NF engine: every NF runs on ChainNf, the CPU-only DPDK baselines as
// well as every NF that offloads to the FPGA.
//
// The NFV service chains of the paper's introduction ("it is thus inflexible
// to use FPGA to implement the entire NFV service chain") are exactly where
// the CPU-FPGA split pays off: each chain stage keeps its control logic on
// CPU and may offload its deep processing to a hardware function, and one
// FPGA serves all the stages' modules simultaneously.  The paper's own NFs
// are the two-stage case (DhlOffloadNf, dhl_nf.hpp): a CPU prep stage, then
// an offload stage with a post step.  Their CPU-only versions are chains of
// CPU stages alone.
//
// A ChainNf runs an ordered list of stages per packet:
//   * CPU stages execute a packet function inline on the chain's cores;
//   * offload stages ship the packet to a hardware function and resume the
//     chain at the next stage when it returns (the resume point rides the
//     mbuf's user_tag, and each offload stage has its own acc_id).
//
// Core layouts (ChainConfig::layout), chosen once at construction, the
// paper's experiment shapes (Table I, Table IV):
//   * kSplit (single NF on one port, V-C): `workers` ingress cores, core i
//     polling every port from port i (NIC RX -> stages until the first
//     offload), plus one egress core draining the private OBQ (remaining
//     stages -> NIC TX) when a stage offloads.  A chain of CPU stages on
//     this layout is DPDK run-to-completion (Table I, the Fig 6 I/O
//     baseline);
//   * kPerPort (multi-NF on 10G ports, V-D): one ingress core per port;
//     core 0 also drains the OBQ (a single-consumer ring) after its ingress;
//   * kPipeline (DPDK pipeline mode, V-B, the CPU-only NFs of Fig 6): an RX
//     I/O core polls every port into a `ring_size` ring, `workers` worker
//     cores run the chain's CPU stages into a second ring, and a TX I/O core
//     transmits from it.  CPU stages only.
// Chains without offload stages never touch the runtime or the OBQ.  Every
// core whose poll found nothing parks (sim/lcore.hpp): its ports' arrivals
// wake the ingress and RX I/O cores, the runtime's deliveries the OBQ's
// consumer, an RX-ring enqueue every worker, and a TX-ring enqueue the TX
// I/O core.
//
// Cycle accounting.  A poll charges its cycles in order and every effect
// happens at the cumulative offset (from the poll's start) at which its
// cycles have elapsed:
//   * ingress flushes a port's offloads to the IBQ once, after that port's
//     RX, stage work and ring-op charge;
//   * a packet that finishes its last stage (on ingress or egress) is
//     transmitted at its own offset, after its NIC TX charge;
//   * an egress poll that dequeued packets flushes its re-offloads, then
//     charges the NIC TX burst's fixed cost;
//   * a worker's packet reaches the TX ring at its own offset, after its
//     ring-op charge.
// The pipeline's I/O cores act at the start of their polls instead: the RX
// core enqueues its bursts and the TX core transmits its dequeued packets
// there, then charges the work.
// TX resolves the packet's port by id; a port the NF does not own is a
// counted drop (bad_port_drops), never a transmit on some other port.
//
// Fabric fusion (DESIGN.md 3.7): maximal runs of >= 2 consecutive offload
// stages are fused through DHL_compose_chain into one chain handle, so the
// run costs one PCIe round trip instead of one per stage.  Only runs whose
// intermediate stages have no `post` callback fuse (a fused record carries
// just the last stage's result word, so intermediate results must be
// unobserved); the egress resume tag then points past the run and the last
// stage's post runs as usual.  When the fused handle is unavailable --
// composition failed, PR still in flight, or the daemon unloaded it -- the
// chain falls back to per-stage round trips with identical bytes.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dhl/netio/mbuf.hpp"
#include "dhl/netio/nic.hpp"
#include "dhl/netio/ring.hpp"
#include "dhl/runtime/api.hpp"
#include "dhl/sim/lcore.hpp"
#include "dhl/sim/simulator.hpp"
#include "dhl/sim/timing_params.hpp"

namespace dhl::nf {

/// What to do with a packet after a stage.
///  kForward -- continue to the next stage.
///  kBypass  -- skip the remaining stages and transmit directly (e.g. a
///              packet with no SA match).
///  kDrop    -- free the packet.
enum class Verdict : std::uint8_t { kForward, kBypass, kDrop };

/// Per-packet processing: transform `m` (really), return a verdict.
using PacketFn = std::function<Verdict(netio::Mbuf&)>;
/// Cycle cost the core running a stage is charged for one packet.  The
/// function does the real computation (crypto, matching); its cost comes
/// from a calibrated model, because wall-clock time of this process is not
/// simulation time.
using CostFn = std::function<double(const netio::Mbuf&)>;

struct ChainStage {
  std::string name;

  /// CPU stage: run `fn` (cost per packet from `cost`).  Ignored for
  /// offload stages.
  PacketFn fn;
  CostFn cost;

  /// Offload stage: non-empty hf_name ships the packet to this hardware
  /// function; `post`/`post_cost` run on return (e.g. result-word checks).
  std::string hf_name;
  std::vector<std::uint8_t> acc_config;
  PacketFn post;
  CostFn post_cost;

  bool is_offload() const { return !hf_name.empty(); }

  static ChainStage cpu(std::string name, PacketFn fn, CostFn cost) {
    ChainStage s;
    s.name = std::move(name);
    s.fn = std::move(fn);
    s.cost = std::move(cost);
    return s;
  }
  static ChainStage offload(std::string name, std::string hf_name,
                            std::vector<std::uint8_t> config, PacketFn post,
                            CostFn post_cost) {
    ChainStage s;
    s.name = std::move(name);
    s.hf_name = std::move(hf_name);
    s.acc_config = std::move(config);
    s.post = std::move(post);
    s.post_cost = std::move(post_cost);
    return s;
  }
};

/// Which cores a chain runs on (see the header comment).
enum class CoreLayout : std::uint8_t { kSplit, kPerPort, kPipeline };

struct ChainConfig {
  std::string name = "chain";
  int socket = 0;
  sim::TimingParams timing;
  /// Tenant the chain's offload traffic is admitted and accounted under.
  TenantId tenant = kDefaultTenant;
  /// Fuse maximal eligible offload runs via DHL_compose_chain.
  bool fuse = true;
  CoreLayout layout = CoreLayout::kSplit;
  /// kSplit: ingress cores (more than one only without offload stages);
  /// kPipeline: worker cores; kPerPort: must be 1.
  std::uint32_t workers = 1;
  /// kPipeline: slots in each of its two rings (a power of two).
  std::uint32_t ring_size = 4096;
};

struct ChainStats {
  std::uint64_t rx_pkts = 0;
  std::uint64_t completed = 0;  // traversed every stage and left via NIC TX
  std::uint64_t dropped = 0;    // every verdict drop: prep_drops + post_drops
  std::uint64_t prep_drops = 0;  // kDrop from a CPU stage
  std::uint64_t post_drops = 0;  // kDrop from an offload stage's post step
  std::uint64_t offloads = 0;   // packets shipped to the FPGA (any stage)
  std::uint64_t fused_offloads = 0;  // of which: via a fused chain handle
  std::uint64_t ibq_drops = 0;  // refused by quota admission or a full IBQ
  std::uint64_t ring_drops = 0;  // refused by a full kPipeline ring
  std::uint64_t bad_port_drops = 0;  // TX to a port id the chain doesn't own
  std::uint64_t handle_refreshes = 0;  // stale acc handles re-resolved
};

/// A fused run of offload stages [first, last] dispatched as one handle.
struct FusedSegment {
  std::size_t first = 0;
  std::size_t last = 0;
  std::string chain_name;
  runtime::AccHandle handle;
  /// Framed per-stage configuration (encode_chain_config), re-applied when
  /// a stale handle is re-resolved after a daemon unload.
  std::vector<std::uint8_t> config;
};

class ChainNf {
 public:
  /// `runtime` may be null iff no stage offloads.  Resolves (and PR-loads)
  /// every offload stage's hardware function at construction.
  ChainNf(sim::Simulator& simulator, ChainConfig config,
          std::vector<netio::NicPort*> ports, runtime::DhlRuntime* runtime,
          std::vector<ChainStage> stages);
  /// Unregisters the cores from the ports' and the runtime's wake lists.
  ~ChainNf();
  ChainNf(const ChainNf&) = delete;
  ChainNf& operator=(const ChainNf&) = delete;

  /// True once every offload stage's module is loaded.
  bool ready() const;

  void start();
  void stop();

  netio::NfId nf_id() const { return nf_id_; }
  const ChainStats& stats() const { return stats_; }
  std::vector<sim::Lcore*> cores();
  std::size_t stage_count() const { return stages_.size(); }
  const runtime::AccHandle& stage_handle(std::size_t i) const {
    return handles_[i];
  }
  const std::vector<FusedSegment>& segments() const { return segments_; }

 private:
  /// NIC RX on `count` ports from port `first`, wrapping past the last;
  /// one IBQ flush per port.
  sim::PollResult ingress_poll(std::size_t first, std::size_t count);
  sim::PollResult egress_poll();
  /// kPipeline's cores: NIC RX -> rx ring, rx ring -> stages -> tx ring,
  /// tx ring -> NIC TX.
  sim::PollResult rx_io_poll();
  sim::PollResult worker_poll();
  sim::PollResult tx_io_poll();

  /// Run CPU stages starting at `stage`, appending their cost to `cycles`.
  /// Returns the first offload stage reached, stages_.size() when the
  /// packet is done (last stage or a bypass), or kDropped after releasing
  /// a dropped packet.
  std::size_t run_cpu(netio::Mbuf* m, std::size_t stage, double& cycles);
  static constexpr std::size_t kDropped = static_cast<std::size_t>(-1);

  /// Run stages starting at `stage` until the packet drops, offloads, or
  /// completes.  Appends cycle cost to `cycles`; offloads queue for the
  /// next send_at(), completed packets are transmitted at `cycles`.
  void run_from(netio::Mbuf* m, std::size_t stage, double& cycles);

  /// Admit the queued offloads through DHL_send_packets once `cycles` core
  /// cycles have elapsed; refusals count as ibq_drops.
  void send_at(double cycles);
  /// Transmit `m` on the port it names once `cycles` have elapsed.
  void transmit_at(netio::Mbuf* m, double cycles);
  /// Transmit `m` on the port it names now; false (and `m` released) when
  /// the chain owns no such port.
  bool transmit(netio::Mbuf* m);

  /// Detect maximal fusable offload runs and compose them (constructor).
  void compose_segments();
  /// Per-stage handle for `i`, re-resolved if the daemon unloaded or
  /// recycled it behind our back (satellite of DESIGN.md 3.7).
  runtime::AccHandle& stage_handle_fresh(std::size_t i);
  /// Is the fused segment dispatchable right now?  Re-resolves a stale
  /// chain handle; false falls back to per-stage round trips.
  bool segment_usable(FusedSegment& seg);

  sim::Simulator& sim_;
  ChainConfig config_;
  std::vector<netio::NicPort*> ports_;
  runtime::DhlRuntime* runtime_;
  std::vector<ChainStage> stages_;
  std::vector<runtime::AccHandle> handles_;  // invalid for CPU stages
  std::vector<FusedSegment> segments_;
  /// stage index -> index into segments_ when a fused run starts there,
  /// -1 otherwise (hot-path lookup in run_from).
  std::vector<int> seg_at_;
  telemetry::Counter* bad_port_counter_ = nullptr;
  netio::NfId nf_id_ = netio::kInvalidNfId;
  netio::MbufRing* obq_ = nullptr;
  /// kPipeline's rings: RX I/O core -> workers -> TX I/O core.
  std::unique_ptr<netio::MbufRing> rx_ring_;
  std::unique_ptr<netio::MbufRing> tx_ring_;
  /// kPipeline: the RX I/O core, the TX I/O core, then the workers.
  std::vector<std::unique_ptr<sim::Lcore>> cores_;
  /// Poll scratch: the RX/OBQ/ring burst and the offloads awaiting send_at().
  std::vector<netio::Mbuf*> burst_;
  std::vector<netio::Mbuf*> to_send_;
  /// Bursts handed to send_at()'s event, recycled once it has sent them.
  std::vector<std::unique_ptr<std::vector<netio::Mbuf*>>> send_bufs_;
  std::vector<std::vector<netio::Mbuf*>*> free_send_bufs_;
  ChainStats stats_;
};

}  // namespace dhl::nf
