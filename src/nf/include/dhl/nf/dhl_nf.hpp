#pragma once

// DHL-version NF execution model.
//
// Paper Table IV: the DHL version of an NF owns only its Ethernet I/O
// cores -- shallow per-packet work (SA matching, header prep, tagging, rule
// option evaluation) rides on them, while deep processing happens in the
// FPGA via the DHL Runtime's transfer cores.
//
// A DhlOffloadNf is the two-stage ChainNf [cpu(prep), offload(hf, post)]:
// NIC RX -> prep -> DHL_send_packets on the ingress side, private OBQ ->
// post -> NIC TX on the egress side, on one ingress core per NF (kSplit)
// or per port (kPerPort) -- the engine's two layouts that may offload
// (chain.hpp; DhlNfConfig::layout).

#include <cstdint>
#include <string>
#include <vector>

#include "dhl/nf/chain.hpp"

namespace dhl::nf {

struct DhlNfConfig : ChainConfig {
  /// Hardware function this NF offloads to.
  std::string hf_name;
  /// Configuration blob for DHL_acc_configure (may be empty).
  std::vector<std::uint8_t> acc_config;
};

class DhlOffloadNf : public ChainNf {
 public:
  /// Registers with the runtime, resolves the hardware function (triggering
  /// a PR load on first use) and configures it -- the Listing 2 sequence.
  DhlOffloadNf(sim::Simulator& simulator, DhlNfConfig config,
               std::vector<netio::NicPort*> ports,
               runtime::DhlRuntime& runtime, PacketFn prep, CostFn prep_cost,
               PacketFn post, CostFn post_cost);
};

}  // namespace dhl::nf
