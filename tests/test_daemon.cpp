// DhlDaemon end-to-end over the unix control socket: admission, the full
// client session, quota rejections, tenant isolation, lease revocation on
// disconnect, and live replicate/unload through the control channel
// (DESIGN.md section 8).
//
// These tests run a real daemon (serve thread + epoll + simulator) against
// real blocking clients, so they exercise the wire protocol exactly as the
// CI smoke job does -- just in-process and on a per-test socket path.

#include <unistd.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "dhl/daemon/client.hpp"
#include "dhl/daemon/daemon.hpp"

namespace dhl::daemon {
namespace {

struct DaemonFixture {
  DaemonConfig cfg;
  std::unique_ptr<DhlDaemon> d;

  explicit DaemonFixture(const std::string& tag) {
    cfg.socket_path = "/tmp/dhl-test-" + std::to_string(::getpid()) + "-" +
                      tag + ".sock";
    runtime::TenantStanza alpha;
    alpha.name = "alpha";  // unlimited
    runtime::TenantStanza bravo;
    bravo.name = "bravo";
    bravo.quota.outstanding_bytes_cap = 8192;
    bravo.quota.max_batches_in_flight = 2;
    cfg.tenants = {alpha, bravo};
    d = std::make_unique<DhlDaemon>(cfg);
  }

  ~DaemonFixture() {
    if (d) d->stop();
    ::unlink(cfg.socket_path.c_str());
  }

  /// Give the serve thread a few loop iterations of real time (e.g. to
  /// notice a peer's disconnect).
  static void settle() {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
};

TEST(Daemon, HelloGatesEveryRequest) {
  DaemonFixture fx("hello");
  ASSERT_TRUE(fx.d->start());
  DaemonClient c;
  ASSERT_TRUE(c.connect(fx.cfg.socket_path));

  // Any request before hello is refused and the connection dropped -- a
  // client that skips admission is a protocol violator.
  EXPECT_FALSE(c.register_nf("early").has_value());
  EXPECT_NE(c.last_error().find("not_admitted"), std::string::npos);
  c.close();
  ASSERT_TRUE(c.connect(fx.cfg.socket_path));

  // Unknown tenant and the default tenant are both inadmissible.
  EXPECT_FALSE(c.hello("charlie"));
  EXPECT_NE(c.last_error().find("unknown_tenant"), std::string::npos);
  EXPECT_FALSE(c.hello("default"));

  // A configured stanza admits; a second hello is a protocol error.
  EXPECT_TRUE(c.hello("alpha"));
  EXPECT_FALSE(c.hello("alpha"));
  EXPECT_NE(c.last_error().find("already_admitted"), std::string::npos);
  EXPECT_TRUE(c.bye());
}

TEST(Daemon, FullSessionLifecycle) {
  DaemonFixture fx("session");
  ASSERT_TRUE(fx.d->start());
  DaemonClient c;
  ASSERT_TRUE(c.connect(fx.cfg.socket_path));
  ASSERT_TRUE(c.hello("alpha"));

  const auto nf = c.register_nf("worker");
  ASSERT_TRUE(nf.has_value()) << c.last_error();
  const auto acc = c.lease("loopback");
  ASSERT_TRUE(acc.has_value()) << c.last_error();

  const auto hb = c.heartbeat();
  ASSERT_TRUE(hb.has_value());
  EXPECT_GT(*hb, 0ull) << "virtual clock must be advancing";

  const auto sent = c.send(*nf, *acc, 64, 256);
  ASSERT_TRUE(sent.has_value()) << c.last_error();
  EXPECT_EQ(sent->accepted, 64);
  EXPECT_EQ(sent->rejected, 0);

  long long drained = 0;
  for (int i = 0; i < 50 && drained < 64; ++i) {
    drained += c.drain(*nf).value_or(0);
  }
  EXPECT_EQ(drained, 64);

  const auto stats = c.stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_NE(stats->find("\"tenant\": \"alpha\""), std::string::npos) << *stats;
  EXPECT_NE(stats->find("\"tenant\": \"bravo\""), std::string::npos);

  const auto audit = c.audit();
  ASSERT_TRUE(audit.has_value()) << c.last_error();
  EXPECT_TRUE(audit->clean) << "tracked=" << audit->tracked
                            << " delivered=" << audit->delivered
                            << " dropped=" << audit->dropped
                            << " live=" << audit->live;
  EXPECT_GT(audit->tracked, 0) << "an audit that saw no packet proves nothing";

  EXPECT_TRUE(c.unload("loopback").has_value());
  EXPECT_TRUE(c.bye());
}

TEST(Daemon, OverQuotaBurstRejectedAndCounted) {
  DaemonFixture fx("quota");
  ASSERT_TRUE(fx.d->start());
  DaemonClient c;
  ASSERT_TRUE(c.connect(fx.cfg.socket_path));
  ASSERT_TRUE(c.hello("bravo"));
  const auto nf = c.register_nf("flood");
  const auto acc = c.lease("loopback");
  ASSERT_TRUE(nf.has_value() && acc.has_value());

  // 128 x 256 B = 4x bravo's outstanding-bytes cap: the tail must be
  // rejected at admission, not silently dropped.
  const auto sent = c.send(*nf, *acc, 128, 256);
  ASSERT_TRUE(sent.has_value()) << c.last_error();
  EXPECT_LE(sent->accepted, 32);
  EXPECT_GT(sent->rejected, 0);
  EXPECT_EQ(sent->accepted + sent->rejected, 128);

  long long drained = 0;
  for (int i = 0; i < 50 && drained < sent->accepted; ++i) {
    drained += c.drain(*nf).value_or(0);
  }
  EXPECT_EQ(drained, sent->accepted);

  // Rejected packets never entered the pipeline, so the tenant still
  // balances.
  const auto audit = c.audit();
  ASSERT_TRUE(audit.has_value());
  EXPECT_TRUE(audit->clean);
  EXPECT_GT(audit->tracked, 0);
  EXPECT_EQ(audit->tracked, sent->accepted);
  EXPECT_TRUE(c.bye());
}

TEST(Daemon, TenantsCannotDriveEachOthersNfs) {
  DaemonFixture fx("isolation");
  ASSERT_TRUE(fx.d->start());
  DaemonClient alpha;
  DaemonClient bravo;
  ASSERT_TRUE(alpha.connect(fx.cfg.socket_path));
  ASSERT_TRUE(bravo.connect(fx.cfg.socket_path));
  ASSERT_TRUE(alpha.hello("alpha"));
  ASSERT_TRUE(bravo.hello("bravo"));

  const auto nf = alpha.register_nf("private");
  const auto acc = alpha.lease("loopback");
  ASSERT_TRUE(nf.has_value() && acc.has_value());

  EXPECT_FALSE(bravo.send(*nf, *acc, 8, 64).has_value());
  EXPECT_NE(bravo.last_error().find("not_your_nf"), std::string::npos);
  EXPECT_FALSE(bravo.drain(*nf).has_value());

  // The owner still can.
  EXPECT_TRUE(alpha.send(*nf, *acc, 8, 64).has_value());
  alpha.bye();
  bravo.bye();
}

TEST(Daemon, UnloadDeferredWhileAnotherClientHoldsLease) {
  DaemonFixture fx("leases");
  ASSERT_TRUE(fx.d->start());
  DaemonClient a;
  DaemonClient b;
  ASSERT_TRUE(a.connect(fx.cfg.socket_path));
  ASSERT_TRUE(b.connect(fx.cfg.socket_path));
  ASSERT_TRUE(a.hello("alpha"));
  ASSERT_TRUE(b.hello("bravo"));

  ASSERT_TRUE(a.lease("loopback").has_value());
  ASSERT_TRUE(b.lease("loopback").has_value());

  // b releases its lease: the function must stay loaded for a.
  const auto removed_b = b.unload("loopback");
  ASSERT_TRUE(removed_b.has_value());
  EXPECT_EQ(*removed_b, 0) << "a still holds a lease";

  // Unloading something never leased is an error, not a crash.
  EXPECT_FALSE(b.unload("loopback").has_value());
  EXPECT_NE(b.last_error().find("not_leased"), std::string::npos);

  // Last lease gone: now the PR regions are actually reclaimed.
  const auto removed_a = a.unload("loopback");
  ASSERT_TRUE(removed_a.has_value());
  EXPECT_GE(*removed_a, 1);
  a.bye();
  b.bye();
}

TEST(Daemon, DisconnectWithoutByeRevokesLeases) {
  DaemonFixture fx("revoke");
  ASSERT_TRUE(fx.d->start());
  {
    DaemonClient crasher;
    ASSERT_TRUE(crasher.connect(fx.cfg.socket_path));
    ASSERT_TRUE(crasher.hello("alpha"));
    ASSERT_TRUE(crasher.lease("loopback").has_value());
    crasher.close();  // no bye: simulates a crashed client
  }
  DaemonFixture::settle();  // let the serve thread reap the dead socket

  // If the crasher's lease was revoked, this client's lease is the only
  // one -- its unload must actually remove the function.
  DaemonClient c;
  ASSERT_TRUE(c.connect(fx.cfg.socket_path));
  ASSERT_TRUE(c.hello("bravo"));
  ASSERT_TRUE(c.lease("loopback").has_value());
  const auto removed = c.unload("loopback");
  ASSERT_TRUE(removed.has_value());
  EXPECT_GE(*removed, 1) << "crashed client's lease still pins the function";
  c.bye();
}

TEST(Daemon, ReplicateOverControlChannel) {
  DaemonFixture fx("replicate");
  ASSERT_TRUE(fx.d->start());
  DaemonClient c;
  ASSERT_TRUE(c.connect(fx.cfg.socket_path));
  ASSERT_TRUE(c.hello("alpha"));
  const auto nf = c.register_nf("worker");
  const auto acc = c.lease("loopback");
  ASSERT_TRUE(nf.has_value() && acc.has_value());

  // Live reconfiguration: scale the leased function to 2 PR regions while
  // traffic is moving, without restarting the daemon.
  ASSERT_TRUE(c.send(*nf, *acc, 32, 128).has_value());
  const auto replicas = c.replicate("loopback", 2);
  ASSERT_TRUE(replicas.has_value()) << c.last_error();
  EXPECT_GE(*replicas, 2);

  long long drained = 0;
  for (int i = 0; i < 50 && drained < 32; ++i) {
    drained += c.drain(*nf).value_or(0);
  }
  EXPECT_EQ(drained, 32);

  const auto audit = c.audit();
  ASSERT_TRUE(audit.has_value());
  EXPECT_TRUE(audit->clean) << "reconfig mid-stream must keep the tenant clean";
  EXPECT_GT(audit->tracked, 0);
  c.bye();
}

TEST(Daemon, StartFailsOnUnbindablePath) {
  DaemonConfig cfg;
  cfg.socket_path = "/nonexistent-dir/dhl.sock";
  runtime::TenantStanza t;
  t.name = "alpha";
  cfg.tenants = {t};
  DhlDaemon d{cfg};
  EXPECT_FALSE(d.start());
  EXPECT_FALSE(d.running());
}

TEST(Daemon, LoadDaemonConfigMapsStanzas) {
  common::ConfigFile f;
  f.load_string(R"(
[daemon]
socket = /tmp/custom.sock
tick_us = 100
num_fpgas = 2

[runtime]
num_sockets = 1
ibq_size = 4096

[tenant alpha]
outstanding_bytes_cap = 0

[tenant bravo]
outstanding_bytes_cap = 16384
max_batches_in_flight = 2
)");
  const DaemonConfig cfg = load_daemon_config(f);
  EXPECT_EQ(cfg.socket_path, "/tmp/custom.sock");
  EXPECT_EQ(cfg.tick, microseconds(100));
  EXPECT_EQ(cfg.num_fpgas, 2);
  EXPECT_EQ(cfg.runtime.num_sockets, 1);
  EXPECT_EQ(cfg.runtime.ibq_size, 4096u);
  ASSERT_EQ(cfg.tenants.size(), 2u);
  EXPECT_EQ(cfg.tenants[0].name, "alpha");
  EXPECT_EQ(cfg.tenants[1].quota.outstanding_bytes_cap, 16384u);
  EXPECT_EQ(cfg.tenants[1].quota.max_batches_in_flight, 2u);
}

}  // namespace
}  // namespace dhl::daemon
