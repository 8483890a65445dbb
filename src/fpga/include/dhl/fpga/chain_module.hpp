#pragma once

// Fused service chain as a single accelerator module (DESIGN.md 3.7).
//
// DHL_compose_chain() fuses an ordered list of loaded hardware functions
// into one dispatchable module: a DMA batch enters the chain's region once,
// traverses every constituent inside the fabric (lz77 -> aes256-ctr,
// md5-auth -> aes256-ctr, ...), and returns once -- instead of paying one
// PCIe round trip per stage.  Functionally the chain is exactly the
// composition of its stages' transforms over a shrinking span, so fused
// output is bit-identical to per-stage round trips.  The host model runs
// stage-major: each stage takes the whole run in one process_batch() call
// (md5-auth hashes eight records side by side), then the next stage takes
// the shrunken windows.  That is exact because every stage still sees its
// own records in run order, and stages share no state, so the order in
// which two stages' calls interleave is not observable.  Timing-wise the
// chain reports one ModuleTiming per constituent through stage_timings(),
// which the device turns into a store-and-forward pipeline: record N sits
// in the AES stage while record N+1 is still in lz77.
//
// Result-word contract: a record carries ONE u64 result, so the chain
// returns the result of `result_stage` (default: the last stage).
// Intermediate results are dropped -- callers fuse only runs whose
// intermediate results nobody reads (ChainNf enforces this by fusing only
// stages without post-offload callbacks).

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dhl/fpga/accelerator.hpp"
#include "dhl/telemetry/metrics.hpp"

namespace dhl::fpga {

/// One constituent of a fused chain.  The counters (optional) attribute
/// per-stage records/bytes inside the fused region back to the stage's hf
/// name -- without them a fused chain would be a telemetry blind spot.
struct ChainStageSlot {
  ModulePtr module;
  telemetry::Counter* records = nullptr;
  telemetry::Counter* bytes = nullptr;
};

class ChainModule final : public AcceleratorModule {
 public:
  /// Result-stage sentinel: use the last stage's result word.
  static constexpr std::size_t kResultFromLast = ~std::size_t{0};

  ChainModule(std::string chain_name, std::vector<ChainStageSlot> stages,
              std::size_t result_stage = kResultFromLast);

  const std::string& name() const override { return name_; }
  /// Sum of constituent footprints: fusing buys round trips, not area.
  ModuleResources resources() const override;
  /// Collapsed view: bottleneck throughput, end-to-end delay.
  ModuleTiming timing() const override;
  /// One entry per constituent pipeline stage (nested chains flatten).
  std::vector<ModuleTiming> stage_timings() const override;

  /// Framed per-stage configuration: zero or more [u8 stage_idx | u32 len
  /// (LE) | len bytes] frames, applied to the indexed stage in order.  An
  /// empty blob is a no-op; bad framing or a stage index out of range
  /// throws std::invalid_argument.
  void configure(std::span<const std::uint8_t> config) override;

  /// One-record process_batch().
  ProcessResult process(std::span<std::uint8_t> data) override;

  /// Stage-major: each stage gets one process_batch() call over the whole
  /// run, then every record's window shrinks to the length that stage
  /// reported.
  void process_batch(std::span<const std::span<std::uint8_t>> datas,
                     std::span<ProcessResult> out) override;

  std::size_t stage_count() const { return stages_.size(); }
  const AcceleratorModule& stage(std::size_t i) const {
    return *stages_.at(i).module;
  }

 private:
  std::string name_;
  std::vector<ChainStageSlot> stages_;
  std::size_t result_stage_;
  /// Per-record windows and one stage's results, reused across calls so a
  /// steady-state run allocates nothing.
  std::vector<std::span<std::uint8_t>> windows_;
  std::vector<ProcessResult> stage_out_;
};

/// Build a ChainModule::configure() blob from per-stage blobs (empty ones
/// are skipped -- unconfigured stages stay at their defaults).
std::vector<std::uint8_t> encode_chain_config(
    const std::vector<std::vector<std::uint8_t>>& per_stage);

}  // namespace dhl::fpga
