#pragma once

// DaemonClient: blocking control-channel client for dhl-daemon (DESIGN.md
// section 8).
//
// One connection == one tenant session.  The API mirrors the wire protocol
// one call per request; every call writes one frame and blocks for the one
// reply, so calls are strictly ordered.  Failures (connect error, protocol
// error, kError reply) return nullopt/false and leave the reason in
// last_error().
//
// Thread contract: one client object per thread; no internal locking.

#include <cstdint>
#include <optional>
#include <string>

#include "dhl/daemon/protocol.hpp"

namespace dhl::daemon {

class DaemonClient {
 public:
  DaemonClient() = default;
  ~DaemonClient() { close(); }
  DaemonClient(const DaemonClient&) = delete;
  DaemonClient& operator=(const DaemonClient&) = delete;

  /// Connect with retry until `timeout_ms` elapses (the daemon may still
  /// be binding its socket when the client races it at startup).
  bool connect(const std::string& socket_path, int timeout_ms = 5000);
  void close();
  bool connected() const { return fd_ >= 0; }

  /// Admit this connection under `tenant` (must be a configured stanza).
  bool hello(const std::string& tenant);

  /// Register an NF under the session tenant; returns its nf_id.
  std::optional<int> register_nf(const std::string& name, int socket = 0);

  /// Lease a hardware function (PR-loading it on first use); returns the
  /// acc_id.  The daemon pumps the PR load before replying.
  std::optional<int> lease(const std::string& hf, int socket = 0);

  /// Ensure `hf` occupies at least `n` PR regions; returns replica count.
  std::optional<int> replicate(const std::string& hf, int n);

  /// Release one lease on `hf`; returns replicas removed (0 while other
  /// leases keep it loaded).
  std::optional<int> unload(const std::string& hf);

  struct SendResult {
    long long accepted = 0;
    long long rejected = 0;
  };
  /// Drive `count` packets of `len` bytes through `nf` tagged for `acc`.
  /// Admission quotas apply; the split comes back in the result.
  std::optional<SendResult> send(int nf, int acc, int count, int len);

  /// Consume the NF's private OBQ; returns packets drained.
  std::optional<long long> drain(int nf);

  /// Per-tenant accounting JSON (TenantRegistry::to_json()).
  std::optional<std::string> stats();

  struct AuditResult {
    bool clean = false;
    long long tracked = 0;
    long long delivered = 0;
    long long dropped = 0;
    long long live = 0;
  };
  /// This tenant's conservation check, from the runtime's tenant counters
  /// (daemon settles in-flight work first); `tracked` is the admitted
  /// count.
  std::optional<AuditResult> audit();

  /// Liveness probe; returns the daemon's virtual time in picoseconds.
  std::optional<unsigned long long> heartbeat();

  /// Graceful goodbye; the daemon acks then closes.
  bool bye();

  const std::string& last_error() const { return error_; }

 private:
  /// Write `type`+`payload`, read one reply frame.  False on transport
  /// error or kError reply (error_ set either way).
  bool request(MsgType type, const std::string& payload, Frame& reply);

  int fd_ = -1;
  FrameParser parser_;
  std::string error_;
};

}  // namespace dhl::daemon
