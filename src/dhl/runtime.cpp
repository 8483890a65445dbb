#include "dhl/runtime/runtime.hpp"

#include "dhl/common/check.hpp"
#include "dhl/common/log.hpp"
#include "dhl/common/simd.hpp"

namespace dhl::runtime {

using netio::MbufRing;
using netio::NfId;

DhlRuntime::DhlRuntime(sim::Simulator& simulator, RuntimeConfig config,
                       fpga::BitstreamDatabase database,
                       std::vector<fpga::FpgaDevice*> fpgas)
    : sim_{simulator},
      config_{std::move(config)},
      telemetry_{telemetry::ensure(config_.telemetry)},
      ledger_{*telemetry_},
      tenants_{telemetry_->metrics},
      table_{simulator, std::move(database), std::move(fpgas), *telemetry_},
      metrics_{*telemetry_, tenants_, ledger_, table_},
      policy_{make_dispatch_policy(config_.dispatch_policy)},
      fallback_{simulator, nfs_, metrics_},
      pools_{config_.num_sockets, kBatchPoolCapacity,
             config_.timing.runtime.max_batch_bytes + fpga::kRecordHeaderBytes,
             *telemetry_},
      packer_{simulator, config_,  *telemetry_, metrics_, table_,
              pools_,    tenants_, *policy_,    fallback_},
      distributor_{simulator, config_, *telemetry_, metrics_, nfs_, pools_} {
  DHL_CHECK(config_.num_sockets > 0);
  table_.set_health_params(config_.timing.runtime.replica_quarantine_failures,
                           config_.timing.runtime.replica_quarantine_period);
  metrics_.nf_name = [this](NfId nf_id) {
    return nf_id < nfs_.size() ? nfs_[nf_id].name
                               : "nf" + std::to_string(nf_id);
  };
  // Surface the active policy as a labelled gauge so dashboards can tell
  // runs apart without parsing logs.
  telemetry_->metrics
      .gauge("dhl.runtime.dispatch_policy",
             telemetry::Labels{{"policy", policy_->name()}})
      ->set(1);
  // Likewise the CPU kernel dispatch (common/simd.hpp): one gauge per
  // kernel, labelled with the ISA it selected on this host under the
  // current DHL_SIMD cap, valued with the tier ordinal so dashboards can
  // plot degradations numerically.
  for (const auto& k : common::simd::kernel_report()) {
    telemetry_->metrics
        .gauge("dhl.simd.kernel_isa",
               telemetry::Labels{{"kernel", k.name},
                                 {"isa", common::simd::to_string(k.selected)}})
        ->set(static_cast<double>(k.selected));
  }
  for (fpga::FpgaDevice* dev : table_.devices()) {
    DHL_CHECK_MSG(dev->socket() >= 0 && dev->socket() < config_.num_sockets,
                  "FPGA socket out of range");
    // Completion queues are per-socket; deliver into the FPGA's node when
    // NUMA-aware, socket 0 otherwise (that is where the buffers live).
    const int target = config_.numa_aware ? dev->socket() : 0;
    dev->dma().set_rx_deliver([this, target](fpga::DmaBatchPtr batch) {
      distributor_.enqueue_completion(target, std::move(batch));
    });
  }
}

DhlRuntime::~DhlRuntime() { stop(); }

NfId DhlRuntime::register_nf(const std::string& name, int socket) {
  return register_nf(name, socket, kDefaultTenant);
}

NfId DhlRuntime::register_nf(const std::string& name, int socket,
                             TenantId tenant) {
  DHL_CHECK(socket >= 0 && socket < config_.num_sockets);
  DHL_CHECK_MSG(nfs_.size() < 250, "too many NFs");
  DHL_CHECK_MSG(tenants_.context(tenant) != nullptr,
                "register_nf: unknown tenant");
  const NfId id = static_cast<NfId>(nfs_.size());
  NfInfo info;
  info.name = name;
  info.socket = socket;
  info.tenant = tenant;
  info.obq = std::make_unique<MbufRing>(
      "dhl.obq." + name, config_.obq_size, netio::SyncMode::kSingle,
      netio::SyncMode::kSingle);
  const telemetry::Labels nf_label{{"nf", name}};
  info.obq_depth = telemetry_->metrics.gauge("dhl.nf.obq_depth", nf_label);
  info.obq_drops = telemetry_->metrics.counter("dhl.nf.obq_drops", nf_label);
  telemetry_->stages.set_nf_name(id, name);
  telemetry_->stages.set_nf_tenant(id, tenants_.tenant_name(tenant));
  tenants_.bind_nf(id, tenant);
  nfs_.push_back(std::move(info));
  DHL_INFO("dhl", "registered NF '" << name << "' as nf_id "
                                    << static_cast<int>(id) << " on socket "
                                    << socket << " (tenant "
                                    << tenants_.tenant_name(tenant) << ")");
  return id;
}

TenantId DhlRuntime::register_tenant(const std::string& name,
                                     const TenantQuota& quota) {
  return tenants_.create(name, quota);
}

std::size_t DhlRuntime::send_packets(NfId nf_id, netio::Mbuf** pkts,
                                     std::size_t n) {
  DHL_CHECK_MSG(nf_id < nfs_.size(), "send_packets: unregistered nf_id");
  TenantContext& t = *tenants_.context(nfs_[nf_id].tenant);
  // Admit the longest prefix under the outstanding-bytes cap.  Prefix (not
  // best-fit) semantics keep packet order; once one packet is refused, the
  // whole tail is refused and counted.  Each admitted packet carries the
  // admitting NF's id, so the Packer debits exactly the tenant charged here.
  std::size_t admit = 0;
  while (admit < n && tenants_.try_admit(t, pkts[admit]->data_len())) {
    pkts[admit++]->set_nf_id(nf_id);
  }
  if (admit < n && n - admit > 1) {
    // try_admit counted the first refusal; count the rest of the tail.
    t.rejected_pkts->add(n - admit - 1);
  }
  const int socket = ibq_socket(nf_id);
  const std::size_t accepted =
      packer_.admission_ibq(socket).enqueue_burst({pkts, admit});
  if (accepted > 0 && static_cast<std::size_t>(socket) < cores_.size()) {
    cores_[static_cast<std::size_t>(socket)].tx->wake();
  }
  // Only packets the ring took are admitted: each now owes the tenant one
  // terminal, delivered or dropped.
  t.admitted_pkts->add(accepted);
  for (std::size_t i = accepted; i < admit; ++i) {
    // The ring itself refused these: undo their admission (counted).
    tenants_.unwind_admit(t, pkts[i]->data_len());
  }
  return accepted;
}

AccHandle DhlRuntime::search_by_name(const std::string& hf_name, int socket) {
  return table_.search_by_name(hf_name, socket);
}

bool DhlRuntime::acc_ready(const AccHandle& handle) const {
  return table_.acc_ready(handle.acc_id);
}

AccHandle DhlRuntime::compose_chain(const std::string& chain_name,
                                    const std::vector<std::string>& stage_hfs,
                                    int socket) {
  return table_.compose_chain(chain_name, stage_hfs, socket);
}

AccHandle DhlRuntime::load_pr(const std::string& hf_name, int fpga_id) {
  return table_.load_pr(hf_name, fpga_id);
}

std::size_t DhlRuntime::replicate(const std::string& hf_name, std::size_t n) {
  return table_.replicate(hf_name, n);
}

void DhlRuntime::acc_configure(const AccHandle& handle,
                               std::span<const std::uint8_t> config) {
  table_.configure(handle.acc_id, config);
}

std::size_t DhlRuntime::unload_function(const std::string& hf_name) {
  return table_.unload_function(hf_name);
}

int DhlRuntime::ibq_socket(NfId nf_id) const {
  DHL_CHECK_MSG(nf_id < nfs_.size(), "unregistered nf_id");
  return config_.numa_aware ? nfs_[nf_id].socket : 0;
}

const MbufRing& DhlRuntime::get_shared_ibq(NfId nf_id) const {
  return packer_.ibq(ibq_socket(nf_id));
}

MbufRing& DhlRuntime::get_private_obq(NfId nf_id) {
  DHL_CHECK_MSG(nf_id < nfs_.size(), "unregistered nf_id");
  return *nfs_[nf_id].obq;
}

void DhlRuntime::set_obq_consumer(NfId nf_id, sim::Lcore* core) {
  DHL_CHECK_MSG(nf_id < nfs_.size(), "unregistered nf_id");
  nfs_[nf_id].obq_consumer = core;
}

void DhlRuntime::start() {
  if (started_) return;
  started_ = true;
  const Frequency clock = config_.timing.cpu.core_clock;
  cores_.resize(static_cast<std::size_t>(config_.num_sockets));
  for (int s = 0; s < config_.num_sockets; ++s) {
    CorePair& pair = cores_[static_cast<std::size_t>(s)];
    pair.tx = std::make_unique<sim::Lcore>(
        sim_, "dhl.tx.socket" + std::to_string(s), clock, s);
    pair.tx->set_idle_poll_cycles(config_.timing.cpu.idle_poll_cycles);
    pair.tx->set_poll([this, s](sim::Lcore&) { return packer_.poll(s); });
    pair.tx->start();

    pair.rx = std::make_unique<sim::Lcore>(
        sim_, "dhl.rx.socket" + std::to_string(s), clock, s);
    pair.rx->set_idle_poll_cycles(config_.timing.cpu.idle_poll_cycles);
    pair.rx->set_poll([this, s](sim::Lcore&) { return distributor_.poll(s); });
    distributor_.set_core(s, pair.rx.get());
    pair.rx->start();
  }
}

void DhlRuntime::stop() {
  for (CorePair& pair : cores_) {
    if (pair.tx) pair.tx->stop();
    if (pair.rx) pair.rx->stop();
  }
  started_ = false;
}

std::vector<sim::Lcore*> DhlRuntime::transfer_cores() {
  std::vector<sim::Lcore*> out;
  for (CorePair& pair : cores_) {
    if (pair.tx) out.push_back(pair.tx.get());
    if (pair.rx) out.push_back(pair.rx.get());
  }
  return out;
}

void DhlRuntime::set_fault_injector(FaultInjector* injector) {
  for (fpga::FpgaDevice* dev : table_.devices()) {
    dev->set_fault_hook(injector);
  }
  packer_.set_fault_hook(injector);
}

void DhlRuntime::register_fallback(netio::NfId nf_id,
                                   const std::string& hf_name,
                                   FallbackFn fn) {
  DHL_CHECK_MSG(nf_id < nfs_.size(), "register_fallback: unregistered nf_id");
  fallback_.register_fallback(nf_id, hf_name, std::move(fn));
}

void DhlRuntime::register_fallback_batch(netio::NfId nf_id,
                                         const std::string& hf_name,
                                         FallbackBatchFn fn) {
  DHL_CHECK_MSG(nf_id < nfs_.size(),
                "register_fallback_batch: unregistered nf_id");
  fallback_.register_fallback_batch(nf_id, hf_name, std::move(fn));
}

void DhlRuntime::set_dispatch_policy(std::unique_ptr<DispatchPolicy> policy) {
  DHL_CHECK(policy != nullptr);
  policy_ = std::move(policy);
  packer_.set_dispatch_policy(*policy_);
  telemetry_->metrics
      .gauge("dhl.runtime.dispatch_policy",
             telemetry::Labels{{"policy", policy_->name()}})
      ->set(1);
}

}  // namespace dhl::runtime
