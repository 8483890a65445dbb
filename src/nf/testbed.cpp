#include "dhl/nf/testbed.hpp"

#include "dhl/common/check.hpp"

namespace dhl::nf {

Testbed::Testbed(TestbedConfig config) : config_{std::move(config)} {
  // One telemetry context for everything the testbed assembles.
  config_.telemetry = telemetry::ensure(std::move(config_.telemetry));
  config_.runtime.telemetry = config_.telemetry;
  config_.fpga.telemetry = config_.telemetry;
  config_.fpga.timing = config_.runtime.timing.fpga;
  config_.fpga.dma = config_.runtime.timing.dma;
  const int sockets = config_.runtime.num_sockets;
  for (int s = 0; s < sockets; ++s) {
    pools_.push_back(std::make_unique<netio::MbufPool>(
        "pool.socket" + std::to_string(s), config_.pool_size,
        config_.mbuf_room, s));
  }
  fpgas_.push_back(std::make_unique<fpga::FpgaDevice>(sim_, config_.fpga));
}

fpga::FpgaDevice& Testbed::add_fpga(int socket) {
  DHL_CHECK_MSG(runtime_ == nullptr, "add FPGAs before init_runtime()");
  fpga::FpgaDeviceConfig cfg = config_.fpga;
  cfg.fpga_id = static_cast<int>(fpgas_.size());
  cfg.name = "fpga" + std::to_string(cfg.fpga_id);
  cfg.socket = socket;
  fpgas_.push_back(std::make_unique<fpga::FpgaDevice>(sim_, cfg));
  return *fpgas_.back();
}

netio::NicPort* Testbed::add_port(const std::string& name, Bandwidth link,
                                  int socket) {
  DHL_CHECK(socket >= 0 &&
            socket < static_cast<int>(pools_.size()));
  netio::NicPortConfig cfg;
  cfg.name = name;
  cfg.port_id = next_port_id_++;
  cfg.link = link;
  cfg.socket = socket;
  cfg.telemetry = config_.telemetry;
  ports_.push_back(std::make_unique<netio::NicPort>(
      sim_, cfg, *pools_[static_cast<std::size_t>(socket)]));
  return ports_.back().get();
}

std::vector<netio::NicPort*> Testbed::port_ptrs() {
  std::vector<netio::NicPort*> out;
  for (auto& p : ports_) out.push_back(p.get());
  return out;
}

runtime::DhlRuntime& Testbed::init_runtime(
    std::shared_ptr<const match::AhoCorasick> nids_automaton) {
  DHL_CHECK_MSG(runtime_ == nullptr, "runtime already initialized");
  std::vector<fpga::FpgaDevice*> devices;
  for (auto& f : fpgas_) devices.push_back(f.get());
  runtime_ = std::make_unique<runtime::DhlRuntime>(
      sim_, config_.runtime,
      accel::standard_module_database(std::move(nids_automaton)),
      std::move(devices));
  return *runtime_;
}

void Testbed::reset_port_stats() {
  for (auto& p : ports_) p->reset_stats();
}

runtime::LedgerAudit Testbed::quiesce_ledger(Picos settle) {
  for (auto& port : ports_) port->stop_traffic();
  run_for(settle);
  runtime::LedgerAudit audit =
      runtime_ != nullptr ? runtime_->ledger().audit() : runtime::LedgerAudit{};
  if (!audit.clean() && config_.telemetry != nullptr) {
    telemetry::FlightRecorder& rec = config_.telemetry->recorder;
    rec.log(telemetry::FlightComponent::kLedger, sim_.now(),
            telemetry::FlightEventKind::kAuditFail, "ledger_audit",
            /*a=*/0, /*b=*/static_cast<std::int32_t>(audit.live),
            /*c=*/audit.tracked);
    rec.dump_auto("ledger_audit_failure");
  }
  return audit;
}

void Testbed::start_introspection() {
  const IntrospectionConfig& ic = config_.introspection;
  telemetry::Telemetry& tel = telemetry();
  if (!ic.flight_dump_path.empty()) {
    tel.recorder.set_auto_dump_path(ic.flight_dump_path);
  }
  if (ic.storm_threshold > 0) {
    tel.recorder.set_fault_storm_threshold(ic.storm_threshold,
                                           ic.storm_window);
  }
  if (slo_ == nullptr) {
    slo_ = std::make_unique<telemetry::SloWatchdog>(tel.stages, &tel.recorder);
    for (const telemetry::SloSpec& spec : ic.slos) slo_->add_slo(spec);
  }
  if (stream_ == nullptr && !ic.stream_socket.empty()) {
    stream_ = std::make_unique<telemetry::TelemetryStreamServer>();
    DHL_CHECK_MSG(stream_->start(ic.stream_socket),
                  "introspection stream socket failed to start");
  }
  if (sampler_ == nullptr) {
    sampler_ = std::make_unique<telemetry::PeriodicSampler>(
        sim_, tel.metrics, ic.sample_period);
    sampler_->set_keep_series(ic.keep_series);
    sampler_->set_tick_hook([this](const telemetry::MetricsSnapshot& snap) {
      telemetry::Telemetry& t = telemetry();
      slo_->evaluate(sim_.now(), snap);
      t.recorder.poll_triggers(sim_.now());
      if (stream_ != nullptr) {
        // Attach per-tenant accounting only once a non-default tenant
        // exists; single-tenant runs keep the legacy snapshot shape.
        std::string tenants;
        if (runtime_ != nullptr && runtime_->tenants().count() > 1) {
          tenants = runtime_->tenants().to_json();
        }
        stream_->publish(telemetry::make_stream_snapshot(
            sim_.now(), snap, &t.stages, slo_.get(),
            tenants.empty() ? nullptr : &tenants));
      }
    });
    sampler_->start();
  }
}

void Testbed::stop_introspection() {
  if (sampler_ != nullptr) sampler_->set_tick_hook(nullptr);
  if (stream_ != nullptr) {
    stream_->stop();
    stream_.reset();
  }
}

}  // namespace dhl::nf
