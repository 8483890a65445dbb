#include "dhl/accel/network_coding.hpp"

#include <cstring>
#include <stdexcept>

#include "dhl/common/check.hpp"
#include "dhl/common/gf256.hpp"
#include "dhl/common/rng.hpp"

namespace dhl::accel {

namespace gf = common::gf256;

void nc_write_header(std::span<std::uint8_t> out, const NcHeader& h) {
  DHL_CHECK(out.size() >= kNcHeaderBytes);
  out[0] = h.window;
  out[1] = h.count;
  out[2] = static_cast<std::uint8_t>(h.sym_len);
  out[3] = static_cast<std::uint8_t>(h.sym_len >> 8);
  out[4] = static_cast<std::uint8_t>(h.seed);
  out[5] = static_cast<std::uint8_t>(h.seed >> 8);
  out[6] = static_cast<std::uint8_t>(h.seed >> 16);
  out[7] = static_cast<std::uint8_t>(h.seed >> 24);
}

std::optional<NcHeader> nc_parse_header(std::span<const std::uint8_t> in) {
  if (in.size() < kNcHeaderBytes) return std::nullopt;
  NcHeader h;
  h.window = in[0];
  h.count = in[1];
  h.sym_len = static_cast<std::uint16_t>(in[2] | (in[3] << 8));
  h.seed = static_cast<std::uint32_t>(in[4]) |
           (static_cast<std::uint32_t>(in[5]) << 8) |
           (static_cast<std::uint32_t>(in[6]) << 16) |
           (static_cast<std::uint32_t>(in[7]) << 24);
  if (h.window == 0 || h.window > kNcMaxWindow || h.sym_len == 0) {
    return std::nullopt;
  }
  return h;
}

std::vector<std::uint8_t> nc_encode_record(std::span<const std::uint8_t> block,
                                           unsigned window, unsigned sym_len,
                                           std::uint32_t seed) {
  DHL_CHECK(block.size() == static_cast<std::size_t>(window) * sym_len);
  std::vector<std::uint8_t> rec(kNcHeaderBytes + block.size());
  nc_write_header(rec, NcHeader{static_cast<std::uint8_t>(window), 0,
                                static_cast<std::uint16_t>(sym_len), seed});
  std::memcpy(rec.data() + kNcHeaderBytes, block.data(), block.size());
  return rec;
}

std::vector<std::uint8_t> nc_rows_record(
    const std::vector<std::vector<std::uint8_t>>& rows, unsigned window,
    unsigned sym_len, std::uint32_t seed) {
  const std::size_t row_len = static_cast<std::size_t>(window) + sym_len;
  std::vector<std::uint8_t> rec(kNcHeaderBytes + rows.size() * row_len);
  nc_write_header(rec,
                  NcHeader{static_cast<std::uint8_t>(window),
                           static_cast<std::uint8_t>(rows.size()),
                           static_cast<std::uint16_t>(sym_len), seed});
  std::uint8_t* p = rec.data() + kNcHeaderBytes;
  for (const auto& row : rows) {
    DHL_CHECK(row.size() == row_len);
    std::memcpy(p, row.data(), row_len);
    p += row_len;
  }
  return rec;
}

std::vector<std::uint8_t> nc_draw_coefficients(std::uint32_t seed,
                                               std::size_t n) {
  Xoshiro256 rng{0xC0DEC0DEULL ^ seed};
  std::vector<std::uint8_t> coeffs(n);
  rng.fill(coeffs.data(), coeffs.size());
  bool any = false;
  for (const std::uint8_t c : coeffs) any |= c != 0;
  if (!any && !coeffs.empty()) coeffs[0] = 1;
  return coeffs;
}

// --- decoder -----------------------------------------------------------------

NcDecoder::NcDecoder(unsigned window, unsigned sym_len)
    : window_{window}, sym_len_{sym_len}, pivot_(window) {
  DHL_CHECK(window >= 1 && window <= kNcMaxWindow && sym_len >= 1);
}

bool NcDecoder::add_row(std::span<const std::uint8_t> coeffs,
                        std::span<const std::uint8_t> symbol) {
  DHL_CHECK(coeffs.size() == window_ && symbol.size() == sym_len_);
  if (complete()) return false;
  std::vector<std::uint8_t> row(window_ + sym_len_);
  std::memcpy(row.data(), coeffs.data(), window_);
  std::memcpy(row.data() + window_, symbol.data(), sym_len_);

  // Forward elimination against the installed pivots.
  for (unsigned col = 0; col < window_; ++col) {
    const std::uint8_t lead = row[col];
    if (lead == 0) continue;
    if (!pivot_[col].empty()) {
      gf::addmul(row.data() + col, pivot_[col].data() + col, lead,
                 window_ - col + sym_len_);
      continue;
    }
    // New pivot: normalize the leading coefficient to 1.
    gf::mul_region(row.data() + col, gf::inv(lead), window_ - col + sym_len_);
    pivot_[col] = std::move(row);
    ++rank_;
    reduced_ = false;
    return true;
  }
  return false;  // linearly dependent on what we already have
}

void NcDecoder::back_substitute() {
  for (unsigned col = window_; col-- > 0;) {
    if (pivot_[col].empty()) continue;
    for (unsigned r = 0; r < col; ++r) {
      if (pivot_[r].empty()) continue;
      const std::uint8_t c = pivot_[r][col];
      if (c == 0) continue;
      gf::addmul(pivot_[r].data() + col, pivot_[col].data() + col, c,
                 window_ - col + sym_len_);
    }
  }
  reduced_ = true;
}

std::span<const std::uint8_t> NcDecoder::symbol(unsigned i) {
  DHL_CHECK_MSG(complete(), "NcDecoder::symbol before full rank");
  DHL_CHECK(i < window_);
  if (!reduced_) back_substitute();
  return {pivot_[i].data() + window_, sym_len_};
}

// --- modules -----------------------------------------------------------------

namespace {

/// Shared malformed-record exit: leave the bytes alone, flag via result.
fpga::ProcessResult untouched(std::span<std::uint8_t> data,
                              std::uint64_t result) {
  return {result, static_cast<std::uint32_t>(data.size()),
          /*data_unmodified=*/true};
}

}  // namespace

void NcEncodeModule::configure(std::span<const std::uint8_t> config) {
  if (!config.empty()) {
    throw std::invalid_argument("nc-encode: takes no configuration");
  }
}

fpga::ProcessResult NcEncodeModule::process(std::span<std::uint8_t> data) {
  const auto h = nc_parse_header(data);
  if (!h.has_value()) return untouched(data, kMalformed);
  const std::size_t block = static_cast<std::size_t>(h->window) * h->sym_len;
  if (data.size() != kNcHeaderBytes + block) return untouched(data, kMalformed);
  // The coded row (window coefficients + one symbol) must fit where the
  // source block was; with window == 1 or sym_len == 1 it is one byte
  // longer, and writing it would run past the record.
  if (static_cast<std::size_t>(h->window) + h->sym_len > block) {
    return untouched(data, kMalformed);
  }

  const std::vector<std::uint8_t> coeffs =
      nc_draw_coefficients(h->seed, h->window);
  std::vector<std::uint8_t> coded(h->sym_len, 0);
  const std::uint8_t* sym = data.data() + kNcHeaderBytes;
  for (unsigned i = 0; i < h->window; ++i, sym += h->sym_len) {
    gf::addmul(coded.data(), sym, coeffs[i], h->sym_len);
  }

  NcHeader out = *h;
  out.count = 1;
  nc_write_header(data, out);
  std::memcpy(data.data() + kNcHeaderBytes, coeffs.data(), h->window);
  std::memcpy(data.data() + kNcHeaderBytes + h->window, coded.data(),
              h->sym_len);
  return {kOk, static_cast<std::uint32_t>(kNcHeaderBytes + h->window +
                                          h->sym_len)};
}

void NcRecodeModule::configure(std::span<const std::uint8_t> config) {
  if (!config.empty()) {
    throw std::invalid_argument("nc-recode: takes no configuration");
  }
}

fpga::ProcessResult NcRecodeModule::process(std::span<std::uint8_t> data) {
  const auto h = nc_parse_header(data);
  if (!h.has_value() || h->count == 0) return untouched(data, kMalformed);
  const std::size_t row_len = static_cast<std::size_t>(h->window) + h->sym_len;
  if (data.size() != kNcHeaderBytes + h->count * row_len) {
    return untouched(data, kMalformed);
  }

  // Recombination: fresh random weights over the received rows.  The
  // output coefficient vector is the same weighted sum of the input rows'
  // vectors, so a downstream decoder needs no knowledge of the relay.
  const std::vector<std::uint8_t> weights =
      nc_draw_coefficients(h->seed, h->count);
  std::vector<std::uint8_t> combined(row_len, 0);
  const std::uint8_t* row = data.data() + kNcHeaderBytes;
  for (unsigned i = 0; i < h->count; ++i, row += row_len) {
    gf::addmul(combined.data(), row, weights[i], row_len);
  }

  NcHeader out = *h;
  out.count = 1;
  nc_write_header(data, out);
  std::memcpy(data.data() + kNcHeaderBytes, combined.data(), row_len);
  return {kOk, static_cast<std::uint32_t>(kNcHeaderBytes + row_len)};
}

void NcDecodeModule::configure(std::span<const std::uint8_t> config) {
  if (!config.empty()) {
    throw std::invalid_argument("nc-decode: takes no configuration");
  }
}

fpga::ProcessResult NcDecodeModule::process(std::span<std::uint8_t> data) {
  const auto h = nc_parse_header(data);
  if (!h.has_value() || h->count == 0) return untouched(data, kMalformed);
  const std::size_t row_len = static_cast<std::size_t>(h->window) + h->sym_len;
  if (data.size() != kNcHeaderBytes + h->count * row_len) {
    return untouched(data, kMalformed);
  }

  NcDecoder dec{h->window, h->sym_len};
  const std::uint8_t* row = data.data() + kNcHeaderBytes;
  for (unsigned i = 0; i < h->count && !dec.complete(); ++i, row += row_len) {
    dec.add_row({row, h->window}, {row + h->window, h->sym_len});
  }
  if (!dec.complete()) return untouched(data, kSingular);

  // The decoded source block replaces the record wholesale: count >= rank
  // == window rows each longer than a symbol guarantees it shrinks.
  std::uint8_t* out = data.data();
  for (unsigned i = 0; i < h->window; ++i, out += h->sym_len) {
    const auto sym = dec.symbol(i);
    std::memcpy(out, sym.data(), h->sym_len);
  }
  return {static_cast<std::uint64_t>(dec.rank()),
          static_cast<std::uint32_t>(static_cast<std::size_t>(h->window) *
                                     h->sym_len)};
}

fpga::PartialBitstream nc_encode_bitstream() {
  fpga::PartialBitstream b;
  b.hf_name = "nc-encode";
  b.size_bytes = 4'100'000;
  b.resources = NcEncodeModule{}.resources();
  b.factory = [] { return std::make_unique<NcEncodeModule>(); };
  return b;
}

fpga::PartialBitstream nc_recode_bitstream() {
  fpga::PartialBitstream b;
  b.hf_name = "nc-recode";
  b.size_bytes = 4'300'000;
  b.resources = NcRecodeModule{}.resources();
  b.factory = [] { return std::make_unique<NcRecodeModule>(); };
  return b;
}

fpga::PartialBitstream nc_decode_bitstream() {
  fpga::PartialBitstream b;
  b.hf_name = "nc-decode";
  b.size_bytes = 5'100'000;
  b.resources = NcDecodeModule{}.resources();
  b.factory = [] { return std::make_unique<NcDecodeModule>(); };
  return b;
}

}  // namespace dhl::accel
