// daemon_client_app: example NF client for dhl-daemon (DESIGN.md section 8).
//
// Connects to a running dhl-daemon, admits itself as a tenant, registers an
// NF, leases the loopback hardware function, pushes a few bursts through
// the runtime-as-a-service, drains the results and prints the per-tenant
// accounting plus its per-tenant conservation audit.  Exit code 0 requires
// a clean audit that counted the accepted packets -- the CI daemon smoke job
// leans on that.
//
// Usage:
//   ./examples/daemon_client_app --tenant=alpha
//                                [--socket=/tmp/dhl-daemon.sock]
//                                [--bursts=8] [--burst-size=64] [--len=256]
//                                [--expect-rejections]  require >=1 rejected
//                                                       (quota-tenant smoke)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "dhl/daemon/client.hpp"

namespace {

std::string arg_value(int argc, char** argv, const char* prefix,
                      const std::string& fallback) {
  const std::size_t n = std::strlen(prefix);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix, n) == 0) return argv[i] + n;
  }
  return fallback;
}

bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string socket =
      arg_value(argc, argv, "--socket=", "/tmp/dhl-daemon.sock");
  const std::string tenant = arg_value(argc, argv, "--tenant=", "alpha");
  const int bursts =
      std::atoi(arg_value(argc, argv, "--bursts=", "8").c_str());
  const int burst_size =
      std::atoi(arg_value(argc, argv, "--burst-size=", "64").c_str());
  const int len = std::atoi(arg_value(argc, argv, "--len=", "256").c_str());
  const bool expect_rejections = has_flag(argc, argv, "--expect-rejections");

  dhl::daemon::DaemonClient client;
  if (!client.connect(socket)) {
    std::fprintf(stderr, "client: %s\n", client.last_error().c_str());
    return 1;
  }
  if (!client.hello(tenant)) {
    std::fprintf(stderr, "client: hello failed: %s\n",
                 client.last_error().c_str());
    return 1;
  }
  const auto nf = client.register_nf("worker");
  const auto acc = client.lease("loopback");
  if (!nf.has_value() || !acc.has_value()) {
    std::fprintf(stderr, "client: setup failed: %s\n",
                 client.last_error().c_str());
    return 1;
  }
  std::printf("[%s] admitted: nf_id=%d acc_id=%d\n", tenant.c_str(), *nf,
              *acc);

  long long accepted = 0;
  long long rejected = 0;
  long long drained = 0;
  for (int b = 0; b < bursts; ++b) {
    const auto sent = client.send(*nf, *acc, burst_size, len);
    if (!sent.has_value()) {
      std::fprintf(stderr, "client: send failed: %s\n",
                   client.last_error().c_str());
      return 1;
    }
    accepted += sent->accepted;
    rejected += sent->rejected;
    drained += client.drain(*nf).value_or(0);
  }
  // Final drain sweeps whatever was still in flight after the last burst.
  for (int i = 0; i < 50; ++i) {
    const long long got = client.drain(*nf).value_or(0);
    drained += got;
    if (got == 0 && i > 2) break;
  }
  std::printf("[%s] accepted=%lld rejected=%lld drained=%lld\n",
              tenant.c_str(), accepted, rejected, drained);

  const auto stats = client.stats();
  if (stats.has_value()) {
    std::printf("[%s] tenants: %s\n", tenant.c_str(), stats->c_str());
  }

  const auto audit = client.audit();
  client.unload("loopback");
  client.bye();

  if (!audit.has_value()) {
    std::fprintf(stderr, "client: audit failed\n");
    return 1;
  }
  std::printf("[%s] audit: clean=%d tracked=%lld delivered=%lld "
              "dropped=%lld live=%lld\n",
              tenant.c_str(), audit->clean ? 1 : 0, audit->tracked,
              audit->delivered, audit->dropped, audit->live);
  if (!audit->clean) {
    std::fprintf(stderr, "client: tenant audit NOT clean\n");
    return 1;
  }
  if (accepted > 0 && audit->tracked == 0) {
    // An audit that counted nothing proves nothing: the daemon accepted
    // packets, so the tenant's conservation check must have seen them.
    std::fprintf(stderr, "client: daemon accepted %lld packets but the "
                         "audit tracked none\n", accepted);
    return 1;
  }
  if (expect_rejections && rejected == 0) {
    std::fprintf(stderr,
                 "client: expected over-quota rejections, saw none\n");
    return 1;
  }
  return 0;
}
