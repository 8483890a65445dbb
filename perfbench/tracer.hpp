#pragma once

// Outside-in host-time tracer for the benchmark's traced run.
//
// Spans are recorded only from the benchmark's own files, around calls into
// each layer's public functions: Simulator::run_until (sim), Packer::poll /
// Distributor::poll (dhl), AcceleratorModule::process (accel, through a
// forwarding proxy database) and the NF prep/post PacketFns (nf).  Spans nest
// on one stack (the simulator is single-threaded), so a layer's self time is
// its span time minus the child spans it covers.  Heap allocations made while
// tracing is on are attributed to the innermost open span by the benchmark
// binary's global operator new.

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "dhl/fpga/bitstream.hpp"

namespace perfbench {

enum Layer : std::uint8_t {
  kNoLayer = 0,  ///< outside every span (benchmark code)
  kSim,          ///< Simulator::run_until minus all wrapped calls
  kPacker,
  kDistributor,
  kPrep,
  kPost,
  kAccelIpsec,
  kAccelPattern,
  kAccelMd5,
  kAccelAes,
  kAccelOther,
  kLayerCount,
};

/// Metric-name stem of a layer ("dhl.packer", "accel.md5-auth", ...).
const char* layer_name(Layer layer);
/// Accel layer for a hardware-function name.
Layer accel_layer(const std::string& hf_name);

struct LayerStats {
  std::uint64_t calls = 0;
  std::uint64_t self_ticks = 0;
  std::uint64_t allocs = 0;  ///< heap allocations while innermost
};

class Tracer {
 public:
  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }
  void reset() {
    stats_ = {};
    depth_ = 0;
  }

  void enter(Layer layer) {
    stack_[depth_++] = {layer, ticks(), 0};
  }
  void leave() {
    const Frame f = stack_[--depth_];
    const std::uint64_t dur = ticks() - f.start;
    LayerStats& s = stats_[f.layer];
    ++s.calls;
    s.self_ticks += dur - f.child;
    if (depth_ > 0) stack_[depth_ - 1].child += dur;
  }
  Layer current() const { return depth_ > 0 ? stack_[depth_ - 1].layer : kNoLayer; }
  void count_alloc() { ++stats_[current()].allocs; }

  const LayerStats& stats(Layer layer) const { return stats_[layer]; }

  /// Monotonic tick source: the TSC on x86-64, steady_clock ns elsewhere.
  static std::uint64_t ticks();
  /// Nanoseconds per tick, calibrated against steady_clock over the whole
  /// process lifetime so far.
  static double ns_per_tick();

 private:
  struct Frame {
    Layer layer;
    std::uint64_t start;
    std::uint64_t child;
  };
  bool on_ = false;
  int depth_ = 0;
  std::array<Frame, 32> stack_{};
  std::array<LayerStats, kLayerCount> stats_{};
};

/// The process-wide tracer (global operator new reads it).
Tracer& tracer();

/// RAII span; a no-op unless tracing is on.
class Span {
 public:
  explicit Span(Layer layer) : on_{tracer().on()} {
    if (on_) tracer().enter(layer);
  }
  ~Span() {
    if (on_) tracer().leave();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool on_;
};

/// Copy of `base` whose factories wrap every module in a forwarding proxy
/// that opens an accel span around process().  Fused chains built by
/// compose_chain() take their stages from these factories, so their
/// per-stage proxies nest inside the chain.
dhl::fpga::BitstreamDatabase traced_database(
    const dhl::fpga::BitstreamDatabase& base);

}  // namespace perfbench
