#pragma once

// DhlDaemon: the runtime-as-a-service process core (DESIGN.md section 8).
//
// One daemon owns the simulated substrate -- simulator, per-socket mbuf
// pools, FPGA boards, one DhlRuntime -- and serves NF clients over a unix
// SOCK_STREAM control socket speaking the protocol.hpp framing.  Clients
// are admitted as *tenants*: the first frame must be kHello naming a tenant
// from the daemon's config, and every later request (register NFs, lease /
// replicate / unload hardware functions, drive traffic, read stats and
// conservation audits) runs in that tenant's scope.  Quotas are the runtime's
// TenantRegistry machinery; the daemon adds the connection lifecycle on
// top:
//
//  - hf leases are refcounted across connections.  unload only removes the
//    function once the last lease is gone; a client that disconnects
//    without kBye has its leases revoked the same way, so a crashed client
//    cannot pin a PR region forever.
//  - live reconfiguration: lease / replicate / unload run against the
//    HwFunctionTable while traffic is in flight -- acc_gen tags make the
//    races safe (stale batches come back as error records, never
//    misrouted).
//
// Threading: ONE serve thread owns everything -- the epoll loop, every
// client socket, and the simulator.  Each loop iteration handles ready
// sockets, then pumps the virtual clock by config.tick, so in-flight
// traffic drains even while clients are idle.  Handlers run on that thread,
// which is what lets them touch the runtime without locks.  After start(),
// the embedding process must interact through the control socket only.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dhl/common/config_file.hpp"
#include "dhl/daemon/protocol.hpp"
#include "dhl/fpga/device.hpp"
#include "dhl/netio/mempool.hpp"
#include "dhl/runtime/config_load.hpp"
#include "dhl/runtime/runtime.hpp"
#include "dhl/sim/simulator.hpp"

namespace dhl::daemon {

struct DaemonConfig {
  /// Control-channel unix socket path.
  std::string socket_path = "/tmp/dhl-daemon.sock";
  /// Virtual time pumped per serve-loop iteration (and per kSend/kDrain
  /// request), so the pipeline makes progress proportional to control
  /// activity plus a steady idle trickle.
  Picos tick = microseconds(50);
  /// FPGA boards to install; board i lands on socket i % num_sockets.
  int num_fpgas = 1;
  std::uint32_t pool_size = 65536;
  std::uint32_t mbuf_room = 2048 + 128;
  runtime::RuntimeConfig runtime;
  /// Admissible tenants (the default tenant exists implicitly but is not
  /// admissible over the wire -- remote clients must name a real stanza).
  std::vector<runtime::TenantStanza> tenants;
};

/// Map a loaded ConfigFile ([daemon] + [runtime] + [tenant X] stanzas)
/// onto a DaemonConfig.  Unknown keys are ignored; parse problems land in
/// file.errors().
DaemonConfig load_daemon_config(const common::ConfigFile& file);

class DhlDaemon {
 public:
  explicit DhlDaemon(DaemonConfig config);
  ~DhlDaemon();
  DhlDaemon(const DhlDaemon&) = delete;
  DhlDaemon& operator=(const DhlDaemon&) = delete;

  /// Bind the control socket (stale file unlinked), start the runtime's
  /// transfer cores and the serve thread.  False on any syscall failure.
  bool start();
  /// Stop serving: disconnect clients (revoking their leases), join the
  /// thread, stop the runtime, unlink the socket.
  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }
  const std::string& socket_path() const { return config_.socket_path; }

  // Observability for tests / the main binary (read-after-stop, or
  // approximate while running).
  std::uint64_t clients_admitted() const { return clients_admitted_; }
  std::uint64_t frames_handled() const { return frames_handled_; }

 private:
  struct Conn {
    int fd = -1;
    FrameParser parser;
    /// kInvalidTenant until a successful kHello.
    TenantId tenant = kInvalidTenant;
    std::string tenant_name;
    /// One entry per held lease (duplicates allowed: lease twice, unload
    /// twice).
    std::vector<std::string> leases;
    bool closing = false;  ///< kBye handled; drop after the reply flushes
  };

  void serve();
  void accept_clients();
  void handle_readable(std::size_t idx);
  void drop_conn(std::size_t idx);
  void release_leases(Conn& conn);
  bool send_frame(Conn& conn, MsgType type, const std::string& payload);
  void reply_error(Conn& conn, const std::string& reason,
                   const std::string& detail);
  /// Dispatch one decoded frame; returns false when the connection must be
  /// dropped (protocol violation).
  bool handle_frame(Conn& conn, const Frame& frame);

  // Request handlers (serve-thread only).
  void on_hello(Conn& conn, const Frame& frame);
  void on_register_nf(Conn& conn, const Frame& frame);
  void on_lease(Conn& conn, const Frame& frame);
  void on_replicate(Conn& conn, const Frame& frame);
  void on_unload(Conn& conn, const Frame& frame);
  void on_send(Conn& conn, const Frame& frame);
  void on_drain(Conn& conn, const Frame& frame);
  void on_stats(Conn& conn);
  void on_audit(Conn& conn, const Frame& frame);
  void on_heartbeat(Conn& conn);

  /// True when `nf` exists and belongs to `conn`'s tenant; replies kError
  /// otherwise.  Tenant isolation: a client may only drive its own NFs.
  bool check_nf_owned(Conn& conn, long long nf);

  void pump(Picos d) { sim_.run_until(sim_.now() + d); }

  DaemonConfig config_;
  sim::Simulator sim_;
  std::vector<std::unique_ptr<netio::MbufPool>> pools_;
  std::vector<std::unique_ptr<fpga::FpgaDevice>> fpgas_;
  std::unique_ptr<runtime::DhlRuntime> runtime_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::vector<Conn> conns_;
  /// hf name -> live lease count across all connections.
  std::map<std::string, int> lease_refs_;

  std::uint64_t clients_admitted_ = 0;
  std::uint64_t frames_handled_ = 0;
};

}  // namespace dhl::daemon
