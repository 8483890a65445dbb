#pragma once

// Accelerator-module interface.
//
// Paper IV-C: every reconfigurable part implements the same design
// specification -- a 256-bit AXI4-Stream datapath at 250 MHz -- and a module
// is characterized by its resource usage (LUTs/BRAM) and its pipeline
// (throughput ceiling + delay cycles), exactly the columns of Table VI.
//
// A module here combines:
//  * a *functional* transform over record bytes (real crypto / matching /
//    compression -- the bytes a downstream NF sees are bit-exact), and
//  * a *timing* descriptor that the device model uses to schedule
//    completions in virtual time.
//
// The Dispatcher hands a module each run of same-acc_id records in one
// process_batch() call.  An override (the multi-pipeline pattern matcher,
// the multi-buffer MD5 module, the stage-major fused chain) must return
// exactly what per-record process() calls would.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dhl/common/check.hpp"
#include "dhl/common/units.hpp"

namespace dhl::fpga {

/// FPGA fabric resources a module occupies (Table VI columns).
struct ModuleResources {
  std::uint32_t luts = 0;
  std::uint32_t brams = 0;  // 36 Kb BRAM blocks
};

/// Pipeline timing descriptor (Table VI columns).
struct ModuleTiming {
  /// Data throughput ceiling through the module.
  Bandwidth max_throughput = Bandwidth::gbps(64);
  /// Pipeline latency in fabric clock cycles (first byte in -> first byte out).
  std::uint32_t delay_cycles = 0;
};

/// Result of processing one record.
struct ProcessResult {
  /// Module-defined result word, copied into the record header.
  std::uint64_t result = 0;
  /// New data length; == input length unless the module grows/shrinks the
  /// payload (e.g. compression).
  std::uint32_t new_len = 0;
  /// True when the module only read the payload (result-only modules:
  /// pattern matching, regex classifier, MD5).  The device stamps
  /// kRecordFlagDataUnmodified on the return record so the Distributor can
  /// skip the write-back memcpy into the mbuf.  Mutating modules (AES,
  /// LZ77) leave this false and pay the copy.
  bool data_unmodified = false;
};

class AcceleratorModule {
 public:
  virtual ~AcceleratorModule() = default;

  /// Hardware-function name, the key NFs pass to DHL_search_by_name().
  virtual const std::string& name() const = 0;
  virtual ModuleResources resources() const = 0;
  virtual ModuleTiming timing() const = 0;

  /// Internal pipeline stages, in datapath order.  Simple modules are one
  /// stage (the default); fused chains (ChainModule) expose one entry per
  /// constituent so the device can model store-and-forward pipelining --
  /// record N occupies stage S while record N+1 is in stage S-1, instead of
  /// serializing whole records through a single busy window.
  virtual std::vector<ModuleTiming> stage_timings() const { return {timing()}; }

  /// Apply configuration written through DHL_acc_configure().  The blob is
  /// module-defined (it models a register/BRAM write).  Throws
  /// std::invalid_argument on malformed configuration.
  virtual void configure(std::span<const std::uint8_t> config) = 0;

  /// Functionally process one record in place.  `data` is the record's data
  /// region inside the batch buffer.  ProcessResult::new_len must be
  /// <= data.size(): a module may shrink a record (compression) but never
  /// grow it -- senders that expect growth (decompression, appended ICVs)
  /// reserve the space before offloading, as the real NFs do.
  virtual ProcessResult process(std::span<std::uint8_t> data) = 0;

  /// Process a run of records, each under process()'s contract: `out[i]`
  /// is the result for `datas[i]`.  The default calls process() on each
  /// record in order, so stateful modules (IPsec sequence numbers, LZ77)
  /// see the same call sequence either way.
  virtual void process_batch(std::span<const std::span<std::uint8_t>> datas,
                             std::span<ProcessResult> out) {
    DHL_CHECK(out.size() >= datas.size());
    for (std::size_t i = 0; i < datas.size(); ++i) out[i] = process(datas[i]);
  }
};

using ModulePtr = std::unique_ptr<AcceleratorModule>;

}  // namespace dhl::fpga
