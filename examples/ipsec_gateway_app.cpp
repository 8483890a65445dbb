// IPsec gateway example (paper V-B1): run the same gateway as a CPU-only
// pipeline and as a DHL-accelerated NF on a simulated 40G port, and compare.
//
// The block between the [DHL-SHIFT-BEGIN]/[DHL-SHIFT-END] markers is the
// code it takes to shift the CPU-only gateway onto DHL -- the quantity
// Table VII reports (the bench_table7_loc binary counts these lines).
//
// Usage: ./examples/ipsec_gateway_app [cpu|dhl|both]

#include <cstdio>
#include <cstring>
#include <memory>

#include "dhl/nf/dhl_nf.hpp"
#include "dhl/nf/ipsec_gateway.hpp"
#include "dhl/nf/testbed.hpp"

namespace {

using namespace dhl;

constexpr std::uint32_t kFrameLen = 512;

double run_cpu_version() {
  nf::Testbed tb;
  auto* port = tb.add_port("xl710", Bandwidth::gbps(40));
  auto proc = std::make_shared<nf::IpsecProcessor>(
      nf::test_security_association(), nf::IpsecPolicy{});

  nf::ChainConfig cfg;
  cfg.name = "ipsec-cpu";
  cfg.timing = tb.timing();
  cfg.layout = nf::CoreLayout::kPipeline;  // 2 I/O cores + 2 workers
  cfg.workers = 2;
  auto encrypt = [proc](netio::Mbuf& m) { return proc->cpu_encrypt(m); };
  nf::ChainNf app{tb.sim(), cfg, {port}, nullptr,
                  {nf::ChainStage::cpu("ipsec", encrypt,
                                       nf::ipsec_cpu_cost(tb.timing()))}};
  app.start();

  netio::TrafficConfig traffic;
  traffic.frame_len = kFrameLen;
  port->start_traffic(traffic, 1.0);
  tb.measure(milliseconds(3), milliseconds(6));
  std::printf("  encapsulated %llu packets (CPU workers did the crypto)\n",
              static_cast<unsigned long long>(proc->stats().encapsulated));
  return nf::forwarded_wire_gbps(*port, kFrameLen, milliseconds(6));
}

double run_dhl_version() {
  nf::Testbed tb;
  auto* port = tb.add_port("xl710", Bandwidth::gbps(40));
  const auto sa = nf::test_security_association();
  auto proc = std::make_shared<nf::IpsecProcessor>(sa, nf::IpsecPolicy{});

  // [DHL-SHIFT-BEGIN] -- everything it takes to move the crypto to the FPGA
  auto& rt = tb.init_runtime();
  nf::DhlNfConfig cfg;
  cfg.name = "ipsec-dhl";
  cfg.timing = tb.timing();
  cfg.hf_name = "ipsec-crypto";                          // hardware function
  cfg.acc_config = accel::ipsec_module_config(false, sa);  // keys -> module
  nf::DhlOffloadNf app{
      tb.sim(),
      cfg,
      {port},
      rt,
      // ingress: SA match + ESP encapsulation only (no crypto)
      [proc](netio::Mbuf& m) { return proc->dhl_prep(m); },
      nf::ipsec_dhl_prep_cost(tb.timing()),
      // egress: check the module's result word
      [proc](netio::Mbuf& m) { return proc->dhl_post(m); },
      nf::ipsec_dhl_post_cost(tb.timing())};
  tb.run_for(milliseconds(30));  // wait for the PR load
  if (!app.ready()) {
    std::fprintf(stderr, "ipsec-crypto failed to load\n");
    return 0;
  }
  rt.start();
  // [DHL-SHIFT-END]

  app.start();
  netio::TrafficConfig traffic;
  traffic.frame_len = kFrameLen;
  port->start_traffic(traffic, 1.0);
  tb.measure(milliseconds(3), milliseconds(6));
  std::printf("  encapsulated %llu packets (FPGA did the crypto; %.0f DMA "
              "batches)\n",
              static_cast<unsigned long long>(proc->stats().encapsulated),
              tb.telemetry().metrics.snapshot().sum(
                  "dhl.runtime.batches_to_fpga"));
  return nf::forwarded_wire_gbps(*port, kFrameLen, milliseconds(6));
}

}  // namespace

int main(int argc, char** argv) {
  const char* mode = argc > 1 ? argv[1] : "both";
  double cpu = 0, dhl = 0;
  if (std::strcmp(mode, "cpu") == 0 || std::strcmp(mode, "both") == 0) {
    std::printf("CPU-only IPsec gateway (2 I/O + 2 worker cores):\n");
    cpu = run_cpu_version();
    std::printf("  throughput: %.2f Gbps\n", cpu);
  }
  if (std::strcmp(mode, "dhl") == 0 || std::strcmp(mode, "both") == 0) {
    std::printf("DHL IPsec gateway (2 I/O + 2 runtime cores):\n");
    dhl = run_dhl_version();
    std::printf("  throughput: %.2f Gbps\n", dhl);
  }
  if (cpu > 0 && dhl > 0) {
    std::printf("speedup: %.1fx with the same number of CPU cores\n",
                dhl / cpu);
  }
  return 0;
}
