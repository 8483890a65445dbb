#pragma once

// dhl-daemon control-channel wire protocol (DESIGN.md section 8).
//
// Frames on the unix SOCK_STREAM control socket are length-prefixed:
//
//   u32 LE payload length | u8 message type | payload bytes
//
// The length covers the payload only (not the type byte); the hard cap
// kMaxPayload rejects garbage before allocating.  Payloads are flat
// `key=value` pairs separated by single spaces -- human-greppable in a
// capture, trivially parseable without a serialization library, and values
// never contain spaces by construction (tenant/NF/hf names are
// identifier-shaped).
//
// The dialog is strict request/reply: the client sends one request frame
// and reads exactly one reply (kOk or kError) before the next request, so
// neither side needs out-of-order bookkeeping.  The first request on a
// connection must be kHello, which admits the client as a tenant; every
// later request runs in that tenant's scope.

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace dhl::daemon {

enum class MsgType : std::uint8_t {
  // -- requests (client -> daemon) ------------------------------------------
  kHello = 1,      ///< "tenant=<name>" -- admit under a configured tenant
  kRegisterNf,     ///< "name=<nf> socket=<n>" -> "nf_id=<n>"
  kLease,          ///< "hf=<name> socket=<n>" -> "acc_id=<n> ready=<0|1>"
  kReplicate,      ///< "hf=<name> n=<k>" -> "replicas=<n>"
  kUnload,         ///< "hf=<name>" -> "removed=<n>" (deferred while leased)
  kSend,           ///< "nf=<id> acc=<id> count=<n> len=<bytes>"
                   ///< -> "accepted=<n> rejected=<n>" (admission-gated)
  kDrain,          ///< "nf=<id>" -> "drained=<n>" (consume the private OBQ)
  kStats,          ///< "" -> per-tenant JSON (TenantRegistry::to_json)
  kAudit,          ///< "tenant=<name>" -> per-tenant conservation check
  kHeartbeat,      ///< "" -> "now_ps=<virtual time>"
  kBye,            ///< graceful close; daemon replies kOk then disconnects
  // -- replies (daemon -> client) -------------------------------------------
  kOk = 100,
  kError = 101,    ///< payload: "reason=<token> detail=<...>"
};

const char* to_string(MsgType type);

/// One decoded frame.
struct Frame {
  MsgType type = MsgType::kError;
  std::string payload;
};

inline constexpr std::uint32_t kMaxPayload = 64 * 1024;
inline constexpr std::size_t kHeaderBytes = 5;  // u32 length + u8 type

/// Serialize one frame (header + payload) ready for write().
std::string encode_frame(MsgType type, const std::string& payload);

/// Incremental decoder: feed() raw bytes as they arrive, next() yields
/// complete frames.  A frame whose advertised length exceeds kMaxPayload
/// poisons the parser (error() stays true; the connection should be
/// dropped -- resynchronizing a byte stream after a bad length is guesswork).
class FrameParser {
 public:
  void feed(const char* data, std::size_t n) { buf_.append(data, n); }
  bool next(Frame& out);
  bool error() const { return error_; }

 private:
  std::string buf_;
  bool error_ = false;
};

/// Parse a "k1=v1 k2=v2" payload.  Malformed tokens (no '=') are skipped.
std::vector<std::pair<std::string, std::string>> parse_kv(
    const std::string& payload);

/// First value for `key`; nullopt when absent.
std::optional<std::string> kv_get(
    const std::vector<std::pair<std::string, std::string>>& kv,
    const std::string& key);

/// kv_get + strtoll; nullopt when absent or not a number.
std::optional<long long> kv_get_int(
    const std::vector<std::pair<std::string, std::string>>& kv,
    const std::string& key);

}  // namespace dhl::daemon
