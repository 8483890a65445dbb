#include "dhl/fpga/batch.hpp"

#include <cstring>
#include <stdexcept>

#include "dhl/common/crc32.hpp"
#include "dhl/common/endian.hpp"
#include "dhl/common/simd.hpp"

namespace dhl::fpga {

namespace {

using common::load_le16;
using common::load_le32;
using common::load_le64;
using common::store_le16;
using common::store_le32;
using common::store_le64;

void serialize_header(std::uint8_t* p, const RecordHeader& h) {
  // Build the 16-byte header in a local block and emit it with one copy:
  // the compiler turns this into a pair of wide stores instead of the six
  // byte/halfword/word stores the field-at-a-time form produced, which the
  // linearize() header loop feels at 24 records per batch.
  std::uint8_t hdr[kRecordHeaderBytes];
  hdr[0] = h.nf_id;
  hdr[1] = h.acc_id;
  store_le16(hdr + 2, h.flags);
  store_le32(hdr + 4, h.data_len);
  store_le64(hdr + 8, h.result);
  std::memcpy(p, hdr, kRecordHeaderBytes);
}

/// Decode the record at `off`; returns the offset one past its data.
/// Shared by parse(), RecordCursor and the hardened retag walk so all
/// three reject the same malformed shapes.
std::size_t parse_record_at(const std::vector<std::uint8_t>& buffer,
                            std::size_t off, RecordView& v) {
  if (off + kRecordHeaderBytes > buffer.size()) {
    throw std::runtime_error("DmaBatch: truncated record header");
  }
  v.header_offset = off;
  const std::uint8_t* p = buffer.data() + off;
  v.header.nf_id = p[0];
  v.header.acc_id = p[1];
  v.header.flags = load_le16(p + 2);
  v.header.data_len = load_le32(p + 4);
  v.header.result = load_le64(p + 8);
  v.data_offset = off + kRecordHeaderBytes;
  if (v.data_offset + v.header.data_len > buffer.size()) {
    throw std::runtime_error("DmaBatch: record data overruns buffer");
  }
  return v.data_offset + v.header.data_len;
}

}  // namespace

void DmaBatch::append(netio::NfId nf_id, std::span<const std::uint8_t> data,
                      netio::Mbuf* origin) {
  DHL_CHECK_MSG(data.size() <= netio::kMbufMaxDataLen,
                "record larger than the 64 KB mbuf cap");
  // Mixing a copy-append behind staged SG records would serialize out of
  // append order (staged records always linearize after the linear region).
  DHL_CHECK_MSG(sg_.empty(), "DmaBatch: copy-append after SG records");
  RecordHeader h;
  h.nf_id = nf_id;
  h.acc_id = acc_id_;
  h.data_len = static_cast<std::uint32_t>(data.size());
  const std::size_t off = buffer_.size();
  buffer_.resize(off + kRecordHeaderBytes + data.size());
  serialize_header(buffer_.data() + off, h);
  common::simd::copy_bytes(buffer_.data() + off + kRecordHeaderBytes,
                           data.data(), data.size());
  pkts_.push_back(origin);
  ++record_count_;
}

void DmaBatch::append_sg(netio::NfId nf_id, netio::Mbuf* origin) {
  DHL_CHECK(origin != nullptr);
  const std::size_t len = origin->data_len();
  DHL_CHECK_MSG(len <= netio::kMbufMaxDataLen,
                "record larger than the 64 KB mbuf cap");
  SgDescriptor d;
  d.mbuf = origin;
  d.offset = 0;
  d.len = static_cast<std::uint32_t>(len);
  d.header.nf_id = nf_id;
  d.header.acc_id = acc_id_;
  d.header.data_len = d.len;
  sg_.push_back(d);
  staged_bytes_ += kRecordHeaderBytes + len;
  pkts_.push_back(origin);
  ++record_count_;
}

void DmaBatch::linearize() {
  if (sg_.empty()) return;
  std::size_t off = buffer_.size();
  buffer_.resize(off + staged_bytes_);
  for (const SgDescriptor& d : sg_) {
    serialize_header(buffer_.data() + off, d.header);
    off += kRecordHeaderBytes;
    if (d.len != 0) {
      // Kernel "batch_copy": AVX2 under a permissive cap, std::memcpy
      // otherwise; byte-identical either way (test_simd_parity).
      common::simd::copy_bytes(buffer_.data() + off,
                               d.mbuf->payload().data() + d.offset, d.len);
    }
    off += d.len;
  }
  sg_.clear();
  staged_bytes_ = 0;
}

std::vector<RecordView> DmaBatch::parse() const {
  DHL_CHECK_MSG(sg_.empty(), "DmaBatch: parse before linearize");
  std::vector<RecordView> out;
  out.reserve(record_count_);
  std::size_t off = 0;
  while (off < buffer_.size()) {
    RecordView v;
    off = parse_record_at(buffer_, off, v);
    out.push_back(v);
  }
  return out;
}

bool RecordCursor::next(RecordView& out) {
  DHL_CHECK_MSG(batch_.linearized(), "DmaBatch: cursor before linearize");
  const auto& buffer = batch_.buffer();
  if (off_ >= buffer.size()) return false;
  off_ = parse_record_at(buffer, off_, out);
  return true;
}

void DmaBatch::retag_acc(netio::AccId acc_id) {
  std::size_t off = 0;
  while (off < buffer_.size()) {
    // Hardened walk: a truncated trailing header or overrunning record is
    // an error, not something to silently walk past.
    if (off + kRecordHeaderBytes > buffer_.size()) {
      throw std::runtime_error("DmaBatch: truncated record header");
    }
    std::uint8_t* p = buffer_.data() + off;
    const std::uint32_t len = common::load_le32(p + 4);
    if (off + kRecordHeaderBytes + len > buffer_.size()) {
      throw std::runtime_error("DmaBatch: record data overruns buffer");
    }
    p[1] = acc_id;
    off += kRecordHeaderBytes + len;
  }
  for (SgDescriptor& d : sg_) d.header.acc_id = acc_id;
  acc_id_ = acc_id;
}

void DmaBatch::reset(netio::AccId acc_id) {
  acc_id_ = acc_id;
  buffer_.clear();
  record_count_ = 0;
  pkts_.clear();
  sg_.clear();
  staged_bytes_ = 0;
  first_pkt_enqueued_at = 0;
  flushed_at = 0;
  tx_done_at = 0;
  rx_submitted_at = 0;
  rx_done_at = 0;
  remote_numa = false;
  batch_id = 0;
  acc_gen = 0;
  tenant = 0;
  tenant_charged = false;
  hf_name.clear();  // keeps capacity, like the buffers
  submitted_bytes = 0;
  wire_corrupt = false;
  wire_crc_ = 0;
  has_crc_ = false;
}

void DmaBatch::stamp_crc() {
  DHL_CHECK_MSG(sg_.empty(), "DmaBatch: stamp_crc before linearize");
  wire_crc_ = common::crc32c(buffer_);
  has_crc_ = true;
}

bool DmaBatch::verify_crc() const {
  if (!has_crc_) return true;
  return common::crc32c(buffer_) == wire_crc_;
}

void DmaBatch::store_header(const RecordView& view) {
  DHL_CHECK(view.header_offset + kRecordHeaderBytes <= buffer_.size());
  serialize_header(buffer_.data() + view.header_offset, view.header);
}

void DmaBatch::resize_record(RecordView& view, std::uint32_t new_len,
                             std::vector<RecordView>& all, std::size_t index) {
  const std::uint32_t old_len = view.header.data_len;
  if (new_len == old_len) return;
  const std::size_t tail_start = view.data_offset + old_len;
  const std::size_t tail_len = buffer_.size() - tail_start;
  if (new_len > old_len) {
    buffer_.resize(buffer_.size() + (new_len - old_len));
    std::memmove(buffer_.data() + view.data_offset + new_len,
                 buffer_.data() + tail_start, tail_len);
  } else {
    std::memmove(buffer_.data() + view.data_offset + new_len,
                 buffer_.data() + tail_start, tail_len);
    buffer_.resize(buffer_.size() - (old_len - new_len));
  }
  const std::ptrdiff_t delta =
      static_cast<std::ptrdiff_t>(new_len) - static_cast<std::ptrdiff_t>(old_len);
  view.header.data_len = new_len;
  store_header(view);
  for (std::size_t i = index + 1; i < all.size(); ++i) {
    all[i].header_offset = static_cast<std::size_t>(
        static_cast<std::ptrdiff_t>(all[i].header_offset) + delta);
    all[i].data_offset = static_cast<std::size_t>(
        static_cast<std::ptrdiff_t>(all[i].data_offset) + delta);
  }
}

}  // namespace dhl::fpga
