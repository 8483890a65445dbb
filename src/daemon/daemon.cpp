#include "dhl/daemon/daemon.hpp"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "dhl/accel/catalog.hpp"
#include "dhl/common/log.hpp"

namespace dhl::daemon {

using runtime::AccHandle;

namespace {

/// A burst larger than this per kSend request is clamped -- the control
/// channel drives traffic in request-sized chunks, it is not a data plane.
constexpr long long kMaxSendBurst = 4096;

}  // namespace

DaemonConfig load_daemon_config(const common::ConfigFile& file) {
  DaemonConfig cfg;
  cfg.socket_path = file.get_string("daemon", "socket", cfg.socket_path);
  const double tick_us =
      file.get_double("daemon", "tick_us", to_seconds(cfg.tick) * 1e6);
  if (tick_us > 0) cfg.tick = microseconds(tick_us);
  cfg.num_fpgas =
      static_cast<int>(file.get_int("daemon", "num_fpgas", cfg.num_fpgas));
  cfg.pool_size = static_cast<std::uint32_t>(
      file.get_uint("daemon", "pool_size", cfg.pool_size));
  runtime::apply_runtime_config(file, cfg.runtime);
  cfg.tenants = runtime::tenant_stanzas(file);
  return cfg;
}

DhlDaemon::DhlDaemon(DaemonConfig config) : config_{std::move(config)} {
  config_.runtime.telemetry = telemetry::ensure(config_.runtime.telemetry);
  if (config_.num_fpgas < 1) config_.num_fpgas = 1;
  const int sockets = config_.runtime.num_sockets;
  for (int s = 0; s < sockets; ++s) {
    pools_.push_back(std::make_unique<netio::MbufPool>(
        "daemon.pool.socket" + std::to_string(s), config_.pool_size,
        config_.mbuf_room, s));
  }
  for (int i = 0; i < config_.num_fpgas; ++i) {
    fpga::FpgaDeviceConfig fc;
    fc.fpga_id = i;
    fc.name = "fpga" + std::to_string(i);
    fc.socket = i % sockets;
    fc.timing = config_.runtime.timing.fpga;
    fc.dma = config_.runtime.timing.dma;
    fc.telemetry = config_.runtime.telemetry;
    fpgas_.push_back(std::make_unique<fpga::FpgaDevice>(sim_, fc));
  }
  std::vector<fpga::FpgaDevice*> devices;
  for (auto& f : fpgas_) devices.push_back(f.get());
  runtime_ = std::make_unique<runtime::DhlRuntime>(
      sim_, config_.runtime, accel::standard_module_database(nullptr),
      std::move(devices));
  for (const runtime::TenantStanza& t : config_.tenants) {
    const TenantId id = runtime_->register_tenant(t.name, t.quota);
    if (id == kInvalidTenant) {
      DHL_WARN("daemon", "tenant '" << t.name << "' not created (duplicate "
                                    << "name or registry full)");
    }
  }
}

DhlDaemon::~DhlDaemon() { stop(); }

bool DhlDaemon::start() {
  if (running()) return false;

  sockaddr_un addr = {};
  if (config_.socket_path.size() >= sizeof(addr.sun_path)) return false;
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, config_.socket_path.c_str(),
              config_.socket_path.size() + 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) return false;
  ::unlink(config_.socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, 16) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }

  epoll_fd_ = ::epoll_create1(0);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    stop();
    return false;
  }
  epoll_event ev = {};
  ev.events = EPOLLIN;
  ev.data.u64 = 0;  // 0 = listener, 1 = wake, 2+i = conns_[i]
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.u64 = 1;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  runtime_->start();
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { serve(); });
  DHL_INFO("daemon", "serving on " << config_.socket_path << " ("
                                   << config_.tenants.size()
                                   << " admissible tenants)");
  return true;
}

void DhlDaemon::stop() {
  if (running_.exchange(false)) {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
    if (thread_.joinable()) thread_.join();
  } else if (thread_.joinable()) {
    thread_.join();
  }
  for (Conn& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
  }
  conns_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  listen_fd_ = epoll_fd_ = wake_fd_ = -1;
  if (!config_.socket_path.empty()) ::unlink(config_.socket_path.c_str());
  if (runtime_ != nullptr) runtime_->stop();
}

void DhlDaemon::serve() {
  epoll_event events[32];
  while (running_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(epoll_fd_, events, 32, /*timeout_ms=*/1);
    if (n < 0 && errno != EINTR) break;
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      if (tag == 0) {
        accept_clients();
      } else if (tag == 1) {
        std::uint64_t drain = 0;
        [[maybe_unused]] const ssize_t r =
            ::read(wake_fd_, &drain, sizeof(drain));
      } else {
        const std::size_t idx = static_cast<std::size_t>(tag - 2);
        if (idx < conns_.size() && conns_[idx].fd >= 0) handle_readable(idx);
      }
    }
    // Compact closed slots only between epoll batches, so the tag -> index
    // mapping stays stable while an event array is in hand.
    for (std::size_t i = conns_.size(); i-- > 0;) {
      if (conns_[i].fd < 0) conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(i));
    }
    // Re-register tags after compaction.
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      epoll_event ev = {};
      ev.events = EPOLLIN;
      ev.data.u64 = 2 + i;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conns_[i].fd, &ev);
    }
    // Idle trickle: the pipeline drains even when no client is talking.
    pump(config_.tick);
  }
}

void DhlDaemon::accept_clients() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) return;
    Conn conn;
    conn.fd = fd;
    conns_.push_back(std::move(conn));
    epoll_event ev = {};
    ev.events = EPOLLIN;
    ev.data.u64 = 2 + (conns_.size() - 1);
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  }
}

void DhlDaemon::handle_readable(std::size_t idx) {
  Conn& conn = conns_[idx];
  char buf[4096];
  while (true) {
    const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
    if (n > 0) {
      conn.parser.feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    drop_conn(idx);  // EOF or hard error: revoke and close
    return;
  }
  Frame frame;
  while (conns_[idx].fd >= 0 && conns_[idx].parser.next(frame)) {
    ++frames_handled_;
    if (!handle_frame(conns_[idx], frame)) {
      drop_conn(idx);
      return;
    }
    if (conns_[idx].closing) {
      drop_conn(idx);
      return;
    }
  }
  if (conns_[idx].fd >= 0 && conns_[idx].parser.error()) drop_conn(idx);
}

void DhlDaemon::drop_conn(std::size_t idx) {
  Conn& conn = conns_[idx];
  if (conn.fd < 0) return;
  release_leases(conn);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
  ::close(conn.fd);
  conn.fd = -1;
}

void DhlDaemon::release_leases(Conn& conn) {
  for (const std::string& hf : conn.leases) {
    auto it = lease_refs_.find(hf);
    if (it == lease_refs_.end()) continue;
    if (--it->second <= 0) {
      lease_refs_.erase(it);
      const std::size_t removed = runtime_->unload_function(hf);
      DHL_INFO("daemon", "lease revoked: unloaded '" << hf << "' ("
                                                     << removed
                                                     << " replicas)");
    }
  }
  conn.leases.clear();
}

bool DhlDaemon::send_frame(Conn& conn, MsgType type,
                          const std::string& payload) {
  const std::string frame = encode_frame(type, payload);
  std::size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t n =
        ::write(conn.fd, frame.data() + sent, frame.size() - sent);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Control replies are small; a full socket buffer means the client
      // stopped reading mid-dialog.  Spin briefly rather than buffering
      // unboundedly -- the strict request/reply protocol makes this rare.
      continue;
    }
    return false;
  }
  return true;
}

void DhlDaemon::reply_error(Conn& conn, const std::string& reason,
                           const std::string& detail) {
  send_frame(conn, MsgType::kError,
             "reason=" + reason + (detail.empty() ? "" : " detail=" + detail));
}

bool DhlDaemon::handle_frame(Conn& conn, const Frame& frame) {
  // Everything except hello requires an admitted tenant.
  if (conn.tenant == kInvalidTenant && frame.type != MsgType::kHello) {
    reply_error(conn, "not_admitted", "hello_first");
    return false;
  }
  switch (frame.type) {
    case MsgType::kHello: on_hello(conn, frame); return true;
    case MsgType::kRegisterNf: on_register_nf(conn, frame); return true;
    case MsgType::kLease: on_lease(conn, frame); return true;
    case MsgType::kReplicate: on_replicate(conn, frame); return true;
    case MsgType::kUnload: on_unload(conn, frame); return true;
    case MsgType::kSend: on_send(conn, frame); return true;
    case MsgType::kDrain: on_drain(conn, frame); return true;
    case MsgType::kStats: on_stats(conn); return true;
    case MsgType::kAudit: on_audit(conn, frame); return true;
    case MsgType::kHeartbeat: on_heartbeat(conn); return true;
    case MsgType::kBye:
      send_frame(conn, MsgType::kOk, "");
      conn.closing = true;
      return true;
    case MsgType::kOk:
    case MsgType::kError:
      reply_error(conn, "bad_request", "reply_type_from_client");
      return false;
  }
  reply_error(conn, "bad_request", "unknown_type");
  return false;
}

void DhlDaemon::on_hello(Conn& conn, const Frame& frame) {
  if (conn.tenant != kInvalidTenant) {
    reply_error(conn, "already_admitted", conn.tenant_name);
    return;
  }
  const auto kv = parse_kv(frame.payload);
  const auto name = kv_get(kv, "tenant");
  if (!name.has_value() || name->empty()) {
    reply_error(conn, "bad_request", "missing_tenant");
    return;
  }
  // Admission: the tenant must be a configured stanza.  The default tenant
  // is deliberately not admissible -- it has no quota, and remote clients
  // must not ride it.
  TenantContext* ctx = runtime_->tenants().by_name(*name);
  if (ctx == nullptr || ctx->id == kDefaultTenant) {
    reply_error(conn, "unknown_tenant", *name);
    return;
  }
  conn.tenant = ctx->id;
  conn.tenant_name = ctx->name;
  ++clients_admitted_;
  send_frame(conn, MsgType::kOk,
             "tenant_id=" + std::to_string(static_cast<int>(ctx->id)));
}

void DhlDaemon::on_register_nf(Conn& conn, const Frame& frame) {
  const auto kv = parse_kv(frame.payload);
  const auto name = kv_get(kv, "name");
  const long long socket = kv_get_int(kv, "socket").value_or(0);
  if (!name.has_value() || name->empty()) {
    reply_error(conn, "bad_request", "missing_name");
    return;
  }
  if (socket < 0 || socket >= config_.runtime.num_sockets) {
    reply_error(conn, "bad_request", "socket_out_of_range");
    return;
  }
  const netio::NfId id = runtime_->register_nf(
      conn.tenant_name + "." + *name, static_cast<int>(socket), conn.tenant);
  send_frame(conn, MsgType::kOk,
             "nf_id=" + std::to_string(static_cast<int>(id)));
}

void DhlDaemon::on_lease(Conn& conn, const Frame& frame) {
  const auto kv = parse_kv(frame.payload);
  const auto hf = kv_get(kv, "hf");
  const long long socket = kv_get_int(kv, "socket").value_or(0);
  if (!hf.has_value() || hf->empty()) {
    reply_error(conn, "bad_request", "missing_hf");
    return;
  }
  const AccHandle handle =
      runtime_->search_by_name(*hf, static_cast<int>(socket));
  if (!handle.valid()) {
    reply_error(conn, "unknown_hf", *hf);
    return;
  }
  // Pump the PR load to completion (bounded); this is virtual time, so the
  // wall-clock cost is the event processing only.
  const Picos deadline = sim_.now() + milliseconds(100);
  while (!runtime_->acc_ready(handle) && sim_.now() < deadline) {
    pump(config_.tick);
  }
  lease_refs_[*hf]++;
  conn.leases.push_back(*hf);
  send_frame(conn, MsgType::kOk,
             "acc_id=" + std::to_string(static_cast<int>(handle.acc_id)) +
                 " ready=" + (runtime_->acc_ready(handle) ? "1" : "0"));
}

void DhlDaemon::on_replicate(Conn& conn, const Frame& frame) {
  const auto kv = parse_kv(frame.payload);
  const auto hf = kv_get(kv, "hf");
  const long long want = kv_get_int(kv, "n").value_or(1);
  if (!hf.has_value() || want < 1) {
    reply_error(conn, "bad_request", "missing_hf_or_n");
    return;
  }
  const std::size_t replicas =
      runtime_->replicate(*hf, static_cast<std::size_t>(want));
  // Let the PR loads land so the reply reflects ready replicas.
  const auto ready_count = [&] {
    std::size_t ready = 0;
    for (const runtime::HwFunctionEntry& e :
         runtime_->function_table().snapshot()) {
      if (e.hf_name == *hf && e.ready) ++ready;
    }
    return ready;
  };
  const Picos deadline = sim_.now() + milliseconds(100);
  while (sim_.now() < deadline && ready_count() < replicas) {
    pump(config_.tick);
  }
  send_frame(conn, MsgType::kOk, "replicas=" + std::to_string(replicas));
}

void DhlDaemon::on_unload(Conn& conn, const Frame& frame) {
  const auto kv = parse_kv(frame.payload);
  const auto hf = kv_get(kv, "hf");
  if (!hf.has_value()) {
    reply_error(conn, "bad_request", "missing_hf");
    return;
  }
  auto held = std::find(conn.leases.begin(), conn.leases.end(), *hf);
  if (held == conn.leases.end()) {
    reply_error(conn, "not_leased", *hf);
    return;
  }
  conn.leases.erase(held);
  std::size_t removed = 0;
  auto it = lease_refs_.find(*hf);
  if (it != lease_refs_.end() && --it->second <= 0) {
    lease_refs_.erase(it);
    it = lease_refs_.end();
    removed = runtime_->unload_function(*hf);
  }
  const int still_leased =
      it == lease_refs_.end() ? 0 : it->second;
  send_frame(conn, MsgType::kOk,
             "removed=" + std::to_string(removed) +
                 " leased=" + std::to_string(still_leased));
}

bool DhlDaemon::check_nf_owned(Conn& conn, long long nf) {
  if (nf < 0 || static_cast<std::size_t>(nf) >= runtime_->nf_count()) {
    reply_error(conn, "unknown_nf", std::to_string(nf));
    return false;
  }
  if (runtime_->tenants().tenant_of(static_cast<netio::NfId>(nf)) !=
      conn.tenant) {
    // Isolation: driving another tenant's NF is a hard protocol error.
    reply_error(conn, "not_your_nf", std::to_string(nf));
    return false;
  }
  return true;
}

void DhlDaemon::on_send(Conn& conn, const Frame& frame) {
  const auto kv = parse_kv(frame.payload);
  const long long nf = kv_get_int(kv, "nf").value_or(-1);
  const long long acc = kv_get_int(kv, "acc").value_or(-1);
  long long count = kv_get_int(kv, "count").value_or(0);
  const long long len = kv_get_int(kv, "len").value_or(64);
  if (!check_nf_owned(conn, nf)) return;
  if (acc < 0 || acc > 255 || count < 0 || len < 1 || len > 2048) {
    reply_error(conn, "bad_request", "acc_count_or_len");
    return;
  }
  if (count > kMaxSendBurst) count = kMaxSendBurst;

  const netio::NfId nf_id = static_cast<netio::NfId>(nf);
  const int socket = 0;  // pools are per-socket; control traffic uses 0
  netio::MbufPool& pool = *pools_[static_cast<std::size_t>(socket)];
  std::vector<std::uint8_t> payload(static_cast<std::size_t>(len),
                                    static_cast<std::uint8_t>(nf));
  long long accepted = 0;
  long long rejected = 0;
  std::vector<netio::Mbuf*> burst;
  burst.reserve(64);
  for (long long i = 0; i < count;) {
    burst.clear();
    for (; i < count && burst.size() < 64; ++i) {
      netio::Mbuf* m = pool.alloc();
      if (m == nullptr) break;  // pool exhausted: stop, not spin
      m->assign(payload);
      m->set_nf_id(nf_id);
      m->set_acc_id(static_cast<netio::AccId>(acc));
      m->set_rx_timestamp(sim_.now() == 0 ? 1 : sim_.now());
      burst.push_back(m);
    }
    if (burst.empty()) break;
    const std::size_t sent =
        runtime_->send_packets(nf_id, burst.data(), burst.size());
    accepted += static_cast<long long>(sent);
    for (std::size_t j = sent; j < burst.size(); ++j) {
      ++rejected;
      burst[j]->release();
    }
    if (sent < burst.size()) {
      // Admission refused the tail: do not hammer the quota in a tight
      // loop; the client re-sends after draining.
      rejected += count - i;
      break;
    }
  }
  pump(config_.tick);
  send_frame(conn, MsgType::kOk,
             "accepted=" + std::to_string(accepted) +
                 " rejected=" + std::to_string(rejected));
}

void DhlDaemon::on_drain(Conn& conn, const Frame& frame) {
  const auto kv = parse_kv(frame.payload);
  const long long nf = kv_get_int(kv, "nf").value_or(-1);
  if (!check_nf_owned(conn, nf)) return;
  pump(config_.tick);
  netio::MbufRing& obq =
      runtime_->get_private_obq(static_cast<netio::NfId>(nf));
  netio::Mbuf* pkts[64];
  long long drained = 0;
  while (true) {
    const std::size_t n =
        runtime::DhlRuntime::receive_packets(obq, pkts, 64);
    if (n == 0) break;
    for (std::size_t j = 0; j < n; ++j) pkts[j]->release();
    drained += static_cast<long long>(n);
  }
  send_frame(conn, MsgType::kOk, "drained=" + std::to_string(drained));
}

void DhlDaemon::on_stats(Conn& conn) {
  send_frame(conn, MsgType::kOk, runtime_->tenants().to_json());
}

void DhlDaemon::on_audit(Conn& conn, const Frame& frame) {
  const auto kv = parse_kv(frame.payload);
  const std::string name =
      kv_get(kv, "tenant").value_or(conn.tenant_name);
  if (name != conn.tenant_name) {
    // A tenant may audit only itself.
    reply_error(conn, "not_your_tenant", name);
    return;
  }
  // Settle in-flight work before auditing, same protocol as
  // Testbed::quiesce_ledger -- virtual time is cheap.
  pump(milliseconds(5));
  // The per-tenant conservation check, from the registry's counters.
  const TenantAudit a = runtime_->tenants().context(conn.tenant)->audit();
  send_frame(conn, MsgType::kOk,
             std::string("clean=") + (a.clean() ? "1" : "0") +
                 " tracked=" + std::to_string(a.admitted) +
                 " delivered=" + std::to_string(a.delivered) +
                 " dropped=" + std::to_string(a.dropped) +
                 " live=" + std::to_string(a.live()));
}

void DhlDaemon::on_heartbeat(Conn& conn) {
  send_frame(conn, MsgType::kOk, "now_ps=" + std::to_string(sim_.now()));
}

}  // namespace dhl::daemon
