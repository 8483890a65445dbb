// Figure 4 reproduction: packet DMA engine throughput (a) and round-trip
// latency (b) vs transfer size, PCIe gen3 x8.
//
// Paper setup (IV-A3): a loopback module in the FPGA redirects RX to TX with
// no other components involved.  Series: the Northwest Logic in-kernel
// driver, the UIO poll-mode driver with buffers on the remote NUMA node, and
// with buffers on the local node.
//
// Throughput: back-to-back transfers for a fixed window, counting returned
// bytes.  Latency: a single request-response round trip on an idle engine.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "dhl/fpga/device.hpp"
#include "dhl/fpga/loopback.hpp"
#include "dhl/netio/mempool.hpp"
#include "dhl/runtime/runtime.hpp"
#include "dhl/sim/simulator.hpp"
#include "dhl/telemetry/sampler.hpp"
#include "dhl/telemetry/telemetry.hpp"

namespace dhl::bench {
namespace {

using fpga::DmaBatch;
using fpga::DmaBatchPtr;
using fpga::DmaDriver;
using fpga::FpgaDevice;

struct Series {
  const char* name;
  DmaDriver driver;
  bool remote_numa;
  // Throughput needs the channel kept busy: in-flight depth must exceed the
  // latency-bandwidth product (the in-kernel driver's ~10 ms round trip
  // needs a deep descriptor ring and a long window).
  int depth;
  Picos window;
};

const Series kSeries[] = {
    {"in-kernel", DmaDriver::kInKernel, false, 2048, milliseconds(200)},
    {"UIO, different NUMA node", DmaDriver::kUioPoll, true, 64,
     milliseconds(2)},
    {"UIO, same NUMA node", DmaDriver::kUioPoll, false, 64, milliseconds(2)},
};

constexpr std::uint32_t kSizes[] = {64,   128,  256,  512,   1024,  2048, 3072,
                                    4096, 5120, 6144, 7168,  8192,  16384,
                                    32768, 65536};

DmaBatchPtr make_batch(std::uint32_t transfer_size, bool remote) {
  // One record whose total (header + data) hits the requested transfer size.
  auto b = std::make_unique<DmaBatch>(0);
  b->append(0,
            std::vector<std::uint8_t>(transfer_size - fpga::kRecordHeaderBytes,
                                      0x5a),
            nullptr);
  b->remote_numa = remote;
  return b;
}

/// Sustained loopback throughput: keep `depth` transfers in flight.
double throughput_gbps(const Series& series, std::uint32_t size) {
  sim::Simulator sim;
  fpga::FpgaDeviceConfig cfg;
  cfg.driver = series.driver;
  FpgaDevice dev{sim, cfg};
  const auto region = dev.load_module(fpga::loopback_bitstream(), nullptr);
  sim.run();
  dev.map_acc(0, *region);

  std::uint64_t returned_bytes = 0;
  const Picos window = series.window;
  const Picos start = sim.now();  // the PR load already advanced the clock
  const Picos end = start + window;
  dev.dma().set_rx_deliver([&](DmaBatchPtr b) {
    returned_bytes += b->size_bytes();
    if (sim.now() < end) {
      dev.dma().submit_tx(make_batch(size, series.remote_numa));
    }
  });
  for (int i = 0; i < series.depth; ++i) {
    dev.dma().submit_tx(make_batch(size, series.remote_numa));
  }
  sim.run_until(end);
  return static_cast<double>(returned_bytes) * 8.0 / to_seconds(window) / 1e9;
}

/// Round-trip latency of a single transfer on an idle engine.
double latency_us(const Series& series, std::uint32_t size) {
  sim::Simulator sim;
  fpga::FpgaDeviceConfig cfg;
  cfg.driver = series.driver;
  FpgaDevice dev{sim, cfg};
  const auto region = dev.load_module(fpga::loopback_bitstream(), nullptr);
  sim.run();
  dev.map_acc(0, *region);

  Picos done = 0;
  dev.dma().set_rx_deliver([&](DmaBatchPtr) { done = sim.now(); });
  const Picos start = sim.now();
  dev.dma().submit_tx(make_batch(size, series.remote_numa));
  sim.run();
  return to_microseconds(done - start);
}

/// Instrumented loopback run for the --telemetry-out sidecar: a DHL runtime
/// drives the same loopback module with tracing + sampling on, then the
/// sidecar's metrics snapshot is the exact source of the numbers printed
/// here (per-NF packets, DMA submit->complete latency).
void telemetry_run(const std::string& out_path) {
  sim::Simulator sim;
  auto tel = telemetry::make_telemetry();
  tel->trace.enable();

  fpga::FpgaDeviceConfig fcfg;
  fcfg.telemetry = tel;
  FpgaDevice dev{sim, fcfg};

  fpga::BitstreamDatabase db;
  db.add(fpga::loopback_bitstream());
  runtime::RuntimeConfig rcfg;
  rcfg.num_sockets = 1;
  rcfg.telemetry = tel;
  runtime::DhlRuntime rt{sim, rcfg, std::move(db),
                         std::vector<FpgaDevice*>{&dev}};

  telemetry::PeriodicSampler sampler{sim, tel->metrics, milliseconds(1)};
  sampler.start();

  const netio::NfId nf = rt.register_nf("loopback-nf", 0);
  const runtime::AccHandle handle = rt.search_by_name("loopback", 0);
  sim.run_until(sim.now() + milliseconds(40));  // PR load
  rt.start();

  netio::MbufPool pool{"fig4.pool", 8192, 2048, 0};
  auto& obq = rt.get_private_obq(nf);

  // Offer bursts of tagged packets over ~1 ms of virtual time.
  constexpr int kWaves = 50;
  constexpr int kPerWave = 32;
  for (int w = 0; w < kWaves; ++w) {
    sim.schedule_after(microseconds(20) * (w + 1), [&, nf] {
      for (int i = 0; i < kPerWave; ++i) {
        netio::Mbuf* m = pool.alloc();
        if (m == nullptr) return;
        const std::vector<std::uint8_t> payload(600, 0xab);
        m->assign(payload);
        m->set_acc_id(handle.acc_id);
        if (rt.send_packets(nf, &m, 1) == 0) m->release();
      }
    });
  }
  sim.run_until(sim.now() + milliseconds(5));
  rt.stop();
  sampler.stop();

  std::uint64_t received = 0;
  netio::Mbuf* out[64];
  for (std::size_t n = obq.dequeue_burst({out, 64}); n > 0;
       n = obq.dequeue_burst({out, 64})) {
    received += n;
    for (std::size_t i = 0; i < n; ++i) out[i]->release();
  }

  const auto snap = tel->metrics.snapshot(sim.now());
  const auto* nf_pkts =
      snap.find("dhl.runtime.nf_pkts", {{"nf", "loopback-nf"}});
  const auto* dma_tx = snap.find("dhl.dma.tx_latency");
  std::printf(
      "\n=== telemetry: instrumented loopback run (DHL runtime + loopback "
      "module) ===\n");
  std::printf("NF 'loopback-nf' packets to FPGA: %.0f (OBQ delivered %llu)\n",
              nf_pkts != nullptr ? nf_pkts->value : 0.0,
              static_cast<unsigned long long>(received));
  if (dma_tx != nullptr) {
    std::printf("DMA submit->complete latency: p50 %.2f us, p99 %.2f us "
                "(%llu transfers)\n",
                to_microseconds(dma_tx->p50), to_microseconds(dma_tx->p99),
                static_cast<unsigned long long>(dma_tx->count));
  }
  std::printf("batch lifecycle spans recorded: %zu\n",
              tel->trace.count_named("batch.lifecycle"));
  if (telemetry::export_session_file(out_path, tel->trace, snap, &sampler)) {
    std::printf("telemetry sidecar written to %s (%zu spans, %zu series, %zu "
                "samples) -- load it in chrome://tracing or ui.perfetto.dev\n",
                out_path.c_str(), tel->trace.size(), snap.samples.size(),
                sampler.series().size());
  } else {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
  }
}

}  // namespace
}  // namespace dhl::bench

int main(int argc, char** argv) {
  using namespace dhl;
  using namespace dhl::bench;

  std::printf(
      "\n=== Figure 4(a): DMA engine throughput vs transfer size (PCIe gen3 "
      "x8, loopback) ===\n");
  std::printf("%-10s %14s %14s %14s\n", "size", "in-kernel", "UIO remote",
              "UIO local");
  std::printf("%-10s %14s %14s %14s\n", "", "(Gbps)", "(Gbps)", "(Gbps)");
  for (const std::uint32_t size : kSizes) {
    std::printf("%-10u %14.2f %14.2f %14.2f\n", size,
                throughput_gbps(kSeries[0], size),
                throughput_gbps(kSeries[1], size),
                throughput_gbps(kSeries[2], size));
  }
  std::printf(
      "paper: UIO reaches the ~42 Gbps ceiling at transfer sizes >= 6 KB;\n"
      "in-kernel stays far below at every size.\n");

  std::printf(
      "\n=== Figure 4(b): DMA engine round-trip latency vs transfer size "
      "===\n");
  std::printf("%-10s %14s %14s %14s\n", "size", "in-kernel", "UIO remote",
              "UIO local");
  std::printf("%-10s %14s %14s %14s\n", "", "(us)", "(us)", "(us)");
  for (const std::uint32_t size : kSizes) {
    std::printf("%-10u %14.1f %14.2f %14.2f\n", size,
                latency_us(kSeries[0], size), latency_us(kSeries[1], size),
                latency_us(kSeries[2], size));
  }
  std::printf(
      "paper: in-kernel ~10 ms; UIO ~2 us at 64 B and 3.8 us at 6 KB; the\n"
      "remote-NUMA penalty is ~0.4 us round trip with no throughput cost.\n");

  const std::string telemetry_out = telemetry_out_arg(argc, argv);
  if (!telemetry_out.empty()) telemetry_run(telemetry_out);
  return 0;
}
