// Quickstart: the Listing-2 workflow against the loopback hardware function.
//
// Shows the minimal DHL API sequence: register an NF, resolve a hardware
// function (triggering its partial-reconfiguration load), send tagged
// packets through the NF's tenant admission into the shared IBQ, and collect
// them from the private OBQ.
//
// Build & run:  ./examples/quickstart [--config=examples/dhl-daemon.conf]
// (--config overlays the file's [runtime] section onto the defaults.)

#include <cstdio>
#include <cstring>

#include "dhl/common/config_file.hpp"
#include "dhl/fpga/device.hpp"
#include "dhl/netio/mempool.hpp"
#include "dhl/runtime/api.hpp"
#include "dhl/runtime/config_load.hpp"
#include "dhl/sim/simulator.hpp"
#include "dhl/accel/catalog.hpp"

int main(int argc, char** argv) {
  using namespace dhl;

  // --- substrate: one simulated server with one FPGA ---
  sim::Simulator sim;
  fpga::FpgaDeviceConfig fpga_cfg;
  fpga::FpgaDevice fpga{sim, fpga_cfg};
  netio::MbufPool pool{"quickstart", 1024, 2048, /*socket=*/0};

  runtime::RuntimeConfig rt_cfg;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--config=", 9) == 0) {
      common::ConfigFile file;
      if (!file.load_file(argv[i] + 9)) {
        std::fprintf(stderr, "cannot read %s\n", argv[i] + 9);
        return 1;
      }
      runtime::apply_runtime_config(file, rt_cfg);
    }
  }
  runtime::DhlRuntime rt{sim, rt_cfg, accel::standard_module_database(nullptr),
                         {&fpga}};

  // --- the Listing 2 sequence ---
  const netio::NfId nf_id = DHL_register(rt, "quickstart-nf", /*socket=*/0);
  const runtime::AccHandle acc = DHL_search_by_name(rt, "loopback", 0);
  if (!acc.valid()) {
    std::fprintf(stderr, "loopback module not in the database?\n");
    return 1;
  }
  std::printf("registered nf_id=%d, resolved acc_id=%d (PR load started)\n",
              nf_id, acc.acc_id);

  // The PR bitstream takes a few ms of virtual time to program.
  sim.run_until(milliseconds(10));
  std::printf("hardware function ready: %s\n", rt.acc_ready(acc) ? "yes" : "no");

  DHL_acc_configure(rt, acc, {});
  netio::MbufRing* obq = DHL_get_private_OBQ(rt, nf_id);
  rt.start();  // transfer-layer lcores (Packer + Distributor)

  // Send a burst of tagged packets to the FPGA.
  constexpr int kCount = 8;
  netio::Mbuf* pkts[kCount];
  for (int i = 0; i < kCount; ++i) {
    pkts[i] = pool.alloc();
    std::uint8_t* p = pkts[i]->append(64);
    for (int b = 0; b < 64; ++b) p[b] = static_cast<std::uint8_t>(i);
    pkts[i]->set_acc_id(acc.acc_id);  // Listing 2: pkts[i].acc_id = acc_id
  }
  // Admission stamps Listing 2's pkts[i].nf_id = nf_id on every packet it
  // accepts into the shared IBQ.
  const std::size_t sent = DHL_send_packets(rt, nf_id, pkts, kCount);
  std::printf("sent %zu packets to the FPGA\n", sent);

  // Let the virtual machine run: pack -> DMA -> dispatch -> DMA -> distribute.
  sim.run_until(sim.now() + microseconds(200));

  netio::Mbuf* out[kCount];
  const std::size_t got = DHL_receive_packets(*obq, out, kCount);
  std::printf("received %zu packets back\n", got);
  for (std::size_t i = 0; i < got; ++i) {
    std::printf("  pkt %zu: %u bytes, first byte 0x%02x, result=%llu\n", i,
                out[i]->data_len(), out[i]->data()[0],
                static_cast<unsigned long long>(out[i]->accel_result()));
    out[i]->release();
  }
  // Runtime counters live in the telemetry registry (Prometheus text
  // exposition below; see DESIGN.md "Observability").
  const auto snap = rt.telemetry().metrics.snapshot(sim.now());
  std::printf("runtime stats: %.0f pkts to FPGA in %.0f batches\n",
              snap.sum("dhl.runtime.pkts_to_fpga"),
              snap.sum("dhl.runtime.batches_to_fpga"));
  std::printf("\n--- metrics snapshot ---\n%s", snap.to_prometheus().c_str());
  return got == sent ? 0 : 1;
}
