#pragma once

// DMA batch format.
//
// Paper IV-A3: the Packer groups packets by acc_id, encodes the 2-byte
// (nf_id, acc_id) tag pair into the header of the data field, and
// encapsulates packets of the same group up to the pre-set batching size
// (6 KB).  On the return path the Distributor decapsulates the batch and
// routes packets to private OBQs by nf_id.
//
// We serialize exactly that: a batch is a byte buffer of records,
//
//   record := u8 nf_id | u8 acc_id | u16 flags | u32 data_len |
//             u64 result | data_len bytes
//
// The 16-byte record header carries the tag pair plus what the real design
// keeps in scatter-gather descriptors (lengths) and in the return-path
// header (the module result word).  The byte buffer is authoritative on the
// FPGA side: accelerator modules only ever see these bytes, never host
// pointers -- which is what makes the data-isolation property (section IV-B)
// testable.  The host-side `pkts` vector parks the in-flight mbufs so the
// Distributor can restore results into them.
//
// TX is scatter-gather (paper IV-A2): `append_sg` stages a descriptor
// {mbuf, offset, len} without touching payload bytes; `linearize()` --
// called at the DMA-submit boundary, i.e. where the real SG engine gathers
// -- serializes the staged records into the wire buffer.  The FPGA side
// still only ever sees the linear bytes.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dhl/common/check.hpp"
#include "dhl/common/units.hpp"
#include "dhl/netio/mbuf.hpp"

namespace dhl::fpga {

inline constexpr std::size_t kRecordHeaderBytes = 16;

/// Record flag bits (u16 `flags` field of the wire header).
/// Set by the device when the record could not be dispatched to a mapped
/// accelerator module (the Distributor drops the packet).
inline constexpr std::uint16_t kRecordFlagError = 0x1;
/// Set by the device when the module consumed the payload but did not
/// rewrite it (result-only modules: pattern matching, regex classifier,
/// MD5).  Lets the Distributor skip the write-back memcpy into the mbuf.
inline constexpr std::uint16_t kRecordFlagDataUnmodified = 0x2;

struct RecordHeader {
  netio::NfId nf_id = netio::kInvalidNfId;
  netio::AccId acc_id = netio::kInvalidAccId;
  std::uint16_t flags = 0;
  std::uint32_t data_len = 0;
  std::uint64_t result = 0;
};

/// A record inside a batch buffer: header + mutable view of its data.
struct RecordView {
  RecordHeader header;
  std::size_t header_offset = 0;  // offset of the record header in the buffer
  std::size_t data_offset = 0;    // offset of the record data in the buffer
};

/// TX scatter-gather descriptor: one staged record whose payload still
/// lives in the originating mbuf.  `linearize()` gathers it.
struct SgDescriptor {
  netio::Mbuf* mbuf = nullptr;
  std::uint32_t offset = 0;  // payload offset inside the mbuf data
  std::uint32_t len = 0;
  RecordHeader header;
};

class DmaBatch {
 public:
  explicit DmaBatch(netio::AccId acc_id, std::size_t reserve_bytes = 0)
      : acc_id_{acc_id} {
    buffer_.reserve(reserve_bytes);
  }

  netio::AccId acc_id() const { return acc_id_; }
  /// Wire size: linearized bytes plus staged (not yet gathered) records.
  std::size_t size_bytes() const { return buffer_.size() + staged_bytes_; }
  std::size_t record_count() const { return record_count_; }
  bool empty() const { return record_count_ == 0; }

  std::vector<std::uint8_t>& buffer() { return buffer_; }
  const std::vector<std::uint8_t>& buffer() const { return buffer_; }

  /// Append one record; copies `data` into the batch buffer immediately.
  /// Used to build raw batches outside the runtime (tests, device benches)
  /// and as the wire-format reference for append_sg().
  void append(netio::NfId nf_id, std::span<const std::uint8_t> data,
              netio::Mbuf* origin);

  /// Append one record by descriptor only -- no payload bytes move until
  /// `linearize()`.  The mbuf must stay parked (it is: the Packer holds it
  /// in `pkts()` until the Distributor releases it).
  void append_sg(netio::NfId nf_id, netio::Mbuf* origin);

  /// True when no records are staged as SG descriptors.
  bool linearized() const { return sg_.empty(); }
  std::size_t staged_records() const { return sg_.size(); }

  /// Gather staged SG records into the wire buffer.  Called by the DMA
  /// engine at submit time (modelling the hardware SG gather pass); no-op
  /// on an already-linear batch.  Wire bytes are byte-identical to what
  /// `append` would have produced.
  void linearize();

  /// Re-parse the records from the raw buffer (done on the FPGA side after
  /// the "transfer": the device trusts only the bytes).
  /// Throws on malformed buffers.  Requires a linearized batch.
  std::vector<RecordView> parse() const;

  /// Write back a record's header (the FPGA mutates result/data_len).
  void store_header(const RecordView& view);

  /// Mutable span of a record's data region.  If the module changed the
  /// payload size, `resize_record` must be called first.
  std::span<std::uint8_t> record_data(const RecordView& view) {
    return {buffer_.data() + view.data_offset, view.header.data_len};
  }

  /// Change a record's data length in place (shifts the rest of the buffer;
  /// control-path cost only -- e.g. the compression module).
  void resize_record(RecordView& view, std::uint32_t new_len,
                     std::vector<RecordView>& all, std::size_t index);

  /// Rewrite every record's acc_id tag (one byte per header, plus staged
  /// SG descriptors) and the batch's own acc_id.  The runtime uses this
  /// when its dispatch policy redirects a batch to another replica of the
  /// same hardware function, whose device maps a different acc_id.
  /// Throws on a malformed linear region (truncated trailing header or
  /// record data overrunning the buffer).
  void retag_acc(netio::AccId acc_id);

  /// Clear all records/bookkeeping for reuse, keeping buffer/vector
  /// capacity (the whole point of pooling).
  void reset(netio::AccId acc_id);

  /// Home pool socket for recycling (-1: not pool-managed).
  int pool_socket() const { return pool_socket_; }
  void set_pool_socket(int socket) { pool_socket_ = socket; }

  /// Host-side: mbufs parked while their bytes are on the FPGA.
  std::vector<netio::Mbuf*>& pkts() { return pkts_; }
  const std::vector<netio::Mbuf*>& pkts() const { return pkts_; }

  /// Seam times on the virtual clock, 0 = not crossed yet.  The Packer
  /// stamps the first two, the DMA engine the transfer seams; the runtime
  /// books every pipeline stage from their differences (DESIGN.md
  /// section 7).  A batch built outside the Packer has flushed_at == 0.
  Picos first_pkt_enqueued_at = 0;
  Picos flushed_at = 0;
  Picos tx_done_at = 0;       // host->FPGA transfer delivered
  Picos rx_submitted_at = 0;  // FPGA->host transfer submitted
  Picos rx_done_at = 0;       // FPGA->host transfer delivered
  /// True when the DMA transferred via the remote NUMA path.
  bool remote_numa = false;
  /// Correlates a batch's telemetry spans (pack / dma / fpga / distribute)
  /// across components.  0 = unassigned (batches built outside the runtime).
  std::uint64_t batch_id = 0;
  /// Generation of the acc_id slot this batch was launched on, stamped by
  /// the runtime at flush or redirect (0 = unstamped, e.g. batches built by
  /// tests).  acc_id slots recycle across unload/reload, so the runtime's
  /// landing seam validates the generation before touching the entry
  /// behind acc_id().
  std::uint32_t acc_gen = 0;
  /// Hardware function the batch was packed for (stamped with acc_gen).
  /// Lets the retry-exhaustion path route the batch to the *right*
  /// function's software fallback even after the entry vanished.
  std::string hf_name;
  /// Tenant the batch was charged to (stamped when the runtime launches
  /// it; 0 = default tenant).  `tenant_charged` makes the quota retire
  /// idempotent: a batch that was never charged (built outside the
  /// runtime) retires as a no-op, and a charge is retired only once.
  std::uint8_t tenant = 0;
  bool tenant_charged = false;
  /// Size at flush time, stamped by the Packer; the runtime charges this
  /// amount to the replica's outstanding bytes at launch and settles it at
  /// landing (the buffer itself may shrink in flight, e.g. the compression
  /// module).
  std::uint64_t submitted_bytes = 0;
  /// Set by the device Dispatcher when the TX-side checksum failed: the
  /// batch bounces back unprocessed, and the flag survives the RX DMA's
  /// restamp so the Distributor still drops it (a fresh checksum over
  /// truncated bytes would otherwise mask the corruption).
  bool wire_corrupt = false;

  /// Checksum the current wire bytes (CRC32C over `buffer()`).  Called by
  /// the DMA engine after the SG gather at each submit boundary, mirroring
  /// the per-transfer CRC real PCIe DMA descriptors carry.
  void stamp_crc();
  /// True when the wire bytes still match the stamped checksum -- or when
  /// no checksum was ever stamped (batches built by tests / benches that
  /// bypass the DMA engine).
  bool verify_crc() const;
  bool has_crc() const { return has_crc_; }
  std::uint32_t wire_crc() const { return wire_crc_; }

 private:
  netio::AccId acc_id_;
  std::vector<std::uint8_t> buffer_;
  std::size_t record_count_ = 0;
  std::vector<netio::Mbuf*> pkts_;
  std::vector<SgDescriptor> sg_;
  std::size_t staged_bytes_ = 0;
  int pool_socket_ = -1;
  std::uint32_t wire_crc_ = 0;
  bool has_crc_ = false;
};

using DmaBatchPtr = std::unique_ptr<DmaBatch>;

/// Zero-allocation forward iterator over a linearized batch's records.
/// Replaces `parse()` on the RX hot path: no vector, no reserve, just a
/// walking offset.  Throws the same errors as `parse()` on malformed
/// buffers.
class RecordCursor {
 public:
  explicit RecordCursor(const DmaBatch& batch) : batch_{batch} {}

  /// Fill `out` with the next record; false when the buffer is exhausted.
  bool next(RecordView& out);

 private:
  const DmaBatch& batch_;
  std::size_t off_ = 0;
};

}  // namespace dhl::fpga
