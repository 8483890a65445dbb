#include "dhl/nf/dhl_nf.hpp"

namespace dhl::nf {

DhlOffloadNf::DhlOffloadNf(sim::Simulator& simulator, DhlNfConfig config,
                           std::vector<netio::NicPort*> ports,
                           runtime::DhlRuntime& runtime, PacketFn prep,
                           CostFn prep_cost, PacketFn post, CostFn post_cost)
    : ChainNf{simulator,
              config,
              std::move(ports),
              &runtime,
              {ChainStage::cpu("prep", std::move(prep), std::move(prep_cost)),
               ChainStage::offload(config.hf_name, config.hf_name,
                                   config.acc_config, std::move(post),
                                   std::move(post_cost))}} {}

}  // namespace dhl::nf
