#include "dhl/accel/extra_modules.hpp"

#include <cstring>
#include <stdexcept>

#include "dhl/accel/lz77.hpp"
#include "dhl/common/check.hpp"
#include "dhl/netio/headers.hpp"

namespace dhl::accel {

void Md5Module::configure(std::span<const std::uint8_t> config) {
  if (!config.empty()) {
    throw std::invalid_argument("md5-auth: takes no configuration");
  }
}

fpga::ProcessResult Md5Module::process(std::span<std::uint8_t> data) {
  fpga::ProcessResult result;
  process_batch({&data, 1}, {&result, 1});
  return result;
}

void Md5Module::process_batch(std::span<const std::span<std::uint8_t>> datas,
                              std::span<fpga::ProcessResult> out) {
  DHL_CHECK(out.size() >= datas.size());
  const std::size_t n = datas.size();
  payloads_.clear();
  for (const std::span<std::uint8_t> data : datas) {
    const netio::PacketView view = netio::parse_packet(data);
    payloads_.push_back(data.subspan(view.valid ? view.payload_offset : 0));
  }
  digests_.resize(n);
  crypto::Md5::digest_many(payloads_, digests_);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t result = 0;
    for (std::size_t b = 0; b < 8; ++b) {
      result |= static_cast<std::uint64_t>(digests_[i][b]) << (8 * b);
    }
    out[i] = {result, static_cast<std::uint32_t>(datas[i].size()),
              /*data_unmodified=*/true};
  }
}

void CompressionModule::configure(std::span<const std::uint8_t> config) {
  if (!config.empty()) {
    throw std::invalid_argument("compression: takes no configuration");
  }
}

fpga::ProcessResult CompressionModule::process(std::span<std::uint8_t> data) {
  const std::vector<std::uint8_t> packed = lz77_compress(data);
  if (packed.size() >= data.size()) {
    // Incompressible input is left untouched -- no write-back needed.
    return {kIncompressible, static_cast<std::uint32_t>(data.size()),
            /*data_unmodified=*/true};
  }
  std::memcpy(data.data(), packed.data(), packed.size());
  return {static_cast<std::uint64_t>(data.size()),
          static_cast<std::uint32_t>(packed.size())};
}

void Aes256CtrModule::configure(std::span<const std::uint8_t> config) {
  if (config.size() != 32 + 16) {
    throw std::invalid_argument("aes256-ctr: config must be key[32] | iv[16]");
  }
  State st{crypto::Aes256{std::span<const std::uint8_t, 32>{config.data(), 32}},
           {}};
  std::memcpy(st.iv.data(), config.data() + 32, 16);
  state_ = st;
}

fpga::ProcessResult Aes256CtrModule::process(std::span<std::uint8_t> data) {
  if (!state_.has_value()) {
    return {kNotConfigured, static_cast<std::uint32_t>(data.size()),
            /*data_unmodified=*/true};
  }
  crypto::aes256_ctr(state_->cipher, state_->iv, data, data);
  return {kOk, static_cast<std::uint32_t>(data.size())};
}

std::vector<std::uint8_t> aes256_ctr_module_config(
    std::span<const std::uint8_t, 32> key,
    std::span<const std::uint8_t, 16> iv) {
  std::vector<std::uint8_t> blob(48);
  std::memcpy(blob.data(), key.data(), 32);
  std::memcpy(blob.data() + 32, iv.data(), 16);
  return blob;
}

std::vector<std::uint8_t> aes256_ctr_test_config() {
  std::array<std::uint8_t, 32> key{};
  std::array<std::uint8_t, 16> iv{};
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(0xA5 ^ (i * 7));
  }
  for (std::size_t i = 0; i < iv.size(); ++i) {
    iv[i] = static_cast<std::uint8_t>(0x3C + i);
  }
  return aes256_ctr_module_config(key, iv);
}

fpga::PartialBitstream md5_bitstream() {
  fpga::PartialBitstream b;
  b.hf_name = "md5-auth";
  b.size_bytes = 3'200'000;
  b.resources = Md5Module{}.resources();
  b.factory = [] { return std::make_unique<Md5Module>(); };
  return b;
}

fpga::PartialBitstream compression_bitstream() {
  fpga::PartialBitstream b;
  b.hf_name = "compression";
  b.size_bytes = 4'700'000;
  b.resources = CompressionModule{}.resources();
  b.factory = [] { return std::make_unique<CompressionModule>(); };
  return b;
}

fpga::PartialBitstream aes256_ctr_bitstream() {
  fpga::PartialBitstream b;
  b.hf_name = "aes256-ctr";
  b.size_bytes = 3'900'000;
  b.resources = Aes256CtrModule{}.resources();
  b.factory = [] { return std::make_unique<Aes256CtrModule>(); };
  return b;
}

}  // namespace dhl::accel
