#include "dhl/fpga/chain_module.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "dhl/common/check.hpp"

namespace dhl::fpga {

ChainModule::ChainModule(std::string chain_name,
                         std::vector<ChainStageSlot> stages,
                         std::size_t result_stage)
    : name_{std::move(chain_name)},
      stages_{std::move(stages)},
      result_stage_{result_stage == kResultFromLast ? stages_.size() - 1
                                                   : result_stage} {
  DHL_CHECK_MSG(!stages_.empty(), "chain needs at least one stage");
  DHL_CHECK(result_stage_ < stages_.size());
  for (const auto& s : stages_) DHL_CHECK(s.module != nullptr);
}

ModuleResources ChainModule::resources() const {
  ModuleResources sum;
  for (const auto& s : stages_) {
    const ModuleResources r = s.module->resources();
    sum.luts += r.luts;
    sum.brams += r.brams;
  }
  return sum;
}

ModuleTiming ChainModule::timing() const {
  ModuleTiming out = stages_.front().module->timing();
  std::uint64_t delay = 0;
  for (const auto& s : stages_) {
    const ModuleTiming t = s.module->timing();
    if (t.max_throughput.bps() < out.max_throughput.bps()) {
      out.max_throughput = t.max_throughput;
    }
    delay += t.delay_cycles;
  }
  out.delay_cycles = static_cast<std::uint32_t>(delay);
  return out;
}

std::vector<ModuleTiming> ChainModule::stage_timings() const {
  std::vector<ModuleTiming> out;
  out.reserve(stages_.size());
  for (const auto& s : stages_) {
    const auto inner = s.module->stage_timings();
    out.insert(out.end(), inner.begin(), inner.end());
  }
  return out;
}

void ChainModule::configure(std::span<const std::uint8_t> config) {
  std::size_t off = 0;
  while (off < config.size()) {
    if (config.size() - off < 5) {
      throw std::invalid_argument(name_ + ": truncated chain config frame");
    }
    const std::size_t idx = config[off];
    const std::uint32_t len = static_cast<std::uint32_t>(config[off + 1]) |
                              (static_cast<std::uint32_t>(config[off + 2]) << 8) |
                              (static_cast<std::uint32_t>(config[off + 3]) << 16) |
                              (static_cast<std::uint32_t>(config[off + 4]) << 24);
    off += 5;
    if (idx >= stages_.size()) {
      throw std::invalid_argument(name_ + ": chain config stage out of range");
    }
    if (config.size() - off < len) {
      throw std::invalid_argument(name_ + ": truncated chain config payload");
    }
    stages_[idx].module->configure(config.subspan(off, len));
    off += len;
  }
}

ProcessResult ChainModule::process(std::span<std::uint8_t> data) {
  ProcessResult result;
  process_batch({&data, 1}, {&result, 1});
  return result;
}

void ChainModule::process_batch(std::span<const std::span<std::uint8_t>> datas,
                                std::span<ProcessResult> out) {
  DHL_CHECK(out.size() >= datas.size());
  const std::size_t n = datas.size();
  windows_.assign(datas.begin(), datas.end());
  stage_out_.resize(n);
  for (std::size_t i = 0; i < n; ++i) out[i].data_unmodified = true;
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    ChainStageSlot& stage = stages_[s];
    stage.module->process_batch(windows_, stage_out_);
    std::uint64_t bytes = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const ProcessResult& r = stage_out_[i];
      DHL_CHECK_MSG(r.new_len <= windows_[i].size(),
                    "chain stage grew a record in place");
      bytes += windows_[i].size();
      if (s == result_stage_) out[i].result = r.result;
      out[i].data_unmodified = out[i].data_unmodified && r.data_unmodified;
      windows_[i] = windows_[i].first(r.new_len);
    }
    if (stage.records != nullptr) stage.records->add(n);
    if (stage.bytes != nullptr) stage.bytes->add(bytes);
  }
  for (std::size_t i = 0; i < n; ++i) {
    out[i].new_len = static_cast<std::uint32_t>(windows_[i].size());
    out[i].data_unmodified =
        out[i].data_unmodified && windows_[i].size() == datas[i].size();
  }
}

std::vector<std::uint8_t> encode_chain_config(
    const std::vector<std::vector<std::uint8_t>>& per_stage) {
  std::vector<std::uint8_t> blob;
  for (std::size_t i = 0; i < per_stage.size(); ++i) {
    const auto& cfg = per_stage[i];
    if (cfg.empty()) continue;
    DHL_CHECK(i <= 0xff);
    blob.push_back(static_cast<std::uint8_t>(i));
    const std::uint32_t len = static_cast<std::uint32_t>(cfg.size());
    blob.push_back(static_cast<std::uint8_t>(len));
    blob.push_back(static_cast<std::uint8_t>(len >> 8));
    blob.push_back(static_cast<std::uint8_t>(len >> 16));
    blob.push_back(static_cast<std::uint8_t>(len >> 24));
    blob.insert(blob.end(), cfg.begin(), cfg.end());
  }
  return blob;
}

}  // namespace dhl::fpga
