#include "dhl/workload/scenario.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <utility>

#include "dhl/accel/extra_modules.hpp"
#include "dhl/accel/pattern_matching.hpp"
#include "dhl/common/check.hpp"
#include "dhl/match/ruleset.hpp"
#include "dhl/nf/chain.hpp"
#include "dhl/nf/dhl_nf.hpp"
#include "dhl/nf/nids.hpp"
#include "dhl/nf/testbed.hpp"
#include "dhl/runtime/api.hpp"
#include "dhl/runtime/fault.hpp"
#include "dhl/telemetry/slo.hpp"

namespace dhl::workload {

using netio::Mbuf;

std::uint64_t scenario_seed(std::uint64_t fallback) {
  const char* env = std::getenv("DHL_SCENARIO_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 0);
  }
  return fallback;
}

// --- spec parsing ------------------------------------------------------------

namespace {

SizeKind parse_size_kind(const std::string& s) {
  if (s == "uniform") return SizeKind::kUniform;
  if (s == "imix") return SizeKind::kImix;
  if (s == "pareto") return SizeKind::kPareto;
  return SizeKind::kFixed;
}

ArrivalKind parse_arrival_kind(const std::string& s) {
  if (s == "onoff") return ArrivalKind::kOnOff;
  if (s == "flash-crowd") return ArrivalKind::kFlashCrowd;
  return ArrivalKind::kConstant;
}

ScenarioSpec parse_one(const common::ConfigFile& f, const std::string& name) {
  const std::string s = "scenario " + name;
  ScenarioSpec spec;
  spec.name = name;

  // Size mix.
  SizeModelConfig& size = spec.workload.size;
  size.kind = parse_size_kind(f.get_string(s, "size", "fixed"));
  size.fixed_len =
      static_cast<std::uint32_t>(f.get_uint(s, "frame_len", size.fixed_len));
  size.min_len =
      static_cast<std::uint32_t>(f.get_uint(s, "min_len", size.min_len));
  size.max_len =
      static_cast<std::uint32_t>(f.get_uint(s, "max_len", size.max_len));
  size.pareto_alpha = f.get_double(s, "pareto_alpha", size.pareto_alpha);

  // Arrival process.
  ArrivalModelConfig& arr = spec.workload.arrival;
  arr.kind = parse_arrival_kind(f.get_string(s, "arrival", "constant"));
  arr.offered = f.get_double(s, "offered", arr.offered);
  arr.peak = f.get_double(s, "peak", arr.peak);
  arr.duty = f.get_double(s, "duty", arr.duty);
  arr.period = microseconds(
      f.get_double(s, "period_us", to_microseconds(arr.period)));
  arr.ramp_start = microseconds(
      f.get_double(s, "ramp_start_us", to_microseconds(arr.ramp_start)));
  arr.ramp_up = microseconds(
      f.get_double(s, "ramp_up_us", to_microseconds(arr.ramp_up)));
  arr.hold =
      microseconds(f.get_double(s, "hold_us", to_microseconds(arr.hold)));
  arr.ramp_down = microseconds(
      f.get_double(s, "ramp_down_us", to_microseconds(arr.ramp_down)));

  // Flow dynamics.
  FlowModelConfig& flow = spec.workload.flow;
  flow.flows = static_cast<std::uint32_t>(f.get_uint(s, "flows", flow.flows));
  flow.churn_every = static_cast<std::uint32_t>(
      f.get_uint(s, "churn_every", flow.churn_every));
  flow.elephants =
      static_cast<std::uint32_t>(f.get_uint(s, "elephants", flow.elephants));
  flow.elephant_share =
      f.get_double(s, "elephant_share", flow.elephant_share);

  // Run shape.
  spec.hf = f.get_string(s, "hf", spec.hf);
  const std::string chain_csv = f.get_string(s, "chain", "");
  for (std::size_t pos = 0; pos < chain_csv.size();) {
    std::size_t comma = chain_csv.find(',', pos);
    if (comma == std::string::npos) comma = chain_csv.size();
    std::string hf = chain_csv.substr(pos, comma - pos);
    const auto b = hf.find_first_not_of(" \t");
    const auto e = hf.find_last_not_of(" \t");
    if (b != std::string::npos) spec.chain.push_back(hf.substr(b, e - b + 1));
    pos = comma + 1;
  }
  spec.chain_fuse = f.get_bool(s, "chain_fuse", spec.chain_fuse);
  spec.attack_probability =
      f.get_double(s, "attack_probability", spec.attack_probability);
  spec.link_gbps = f.get_double(s, "link_gbps", spec.link_gbps);
  spec.warmup = milliseconds(
      f.get_double(s, "warmup_ms", to_milliseconds(spec.warmup)));
  spec.window = milliseconds(
      f.get_double(s, "window_ms", to_milliseconds(spec.window)));
  spec.settle = milliseconds(
      f.get_double(s, "settle_ms", to_milliseconds(spec.settle)));

  // SLO budgets.
  spec.p99_ceiling = microseconds(f.get_double(s, "p99_us", 0));
  spec.p999_ceiling = microseconds(f.get_double(s, "p999_us", 0));
  spec.drop_rate_budget = f.get_double(s, "drop_budget", -1.0);
  spec.enter_after = static_cast<std::uint32_t>(
      f.get_uint(s, "enter_after", spec.enter_after));
  spec.exit_after = static_cast<std::uint32_t>(
      f.get_uint(s, "exit_after", spec.exit_after));
  spec.sample_period = microseconds(
      f.get_double(s, "sample_us", to_microseconds(spec.sample_period)));
  spec.expect = f.get_string(s, "expect", spec.expect);

  // Background flooder tenant.
  BackgroundTenantSpec& bg = spec.background;
  bg.enabled = f.get_bool(s, "background", false);
  bg.quota_bytes =
      f.get_uint(s, "background_quota_kb", bg.quota_bytes / 1024) * 1024;
  bg.burst =
      static_cast<std::uint32_t>(f.get_uint(s, "background_burst", bg.burst));
  bg.frame_len = static_cast<std::uint32_t>(
      f.get_uint(s, "background_len", bg.frame_len));
  bg.period = microseconds(
      f.get_double(s, "background_period_us", to_microseconds(bg.period)));

  // Fault overlay.
  FaultOverlaySpec& fault = spec.fault;
  fault.enabled = f.get_bool(s, "fault", false);
  fault.site = f.get_string(s, "fault_site", fault.site);
  fault.kind = f.get_string(s, "fault_kind", fault.kind);
  fault.probability = f.get_double(s, "fault_probability", fault.probability);
  fault.active_from = microseconds(f.get_double(s, "fault_from_us", 0));
  const double until_us = f.get_double(s, "fault_until_us", 0);
  if (until_us > 0) fault.active_until = microseconds(until_us);
  const std::uint64_t max_count = f.get_uint(s, "fault_max", 0);
  if (max_count > 0) fault.max_count = max_count;

  spec.seed = f.get_uint(s, "seed", kDefaultScenarioSeed);
  return spec;
}

}  // namespace

std::vector<ScenarioSpec> parse_scenarios(const common::ConfigFile& file) {
  std::vector<ScenarioSpec> specs;
  for (const common::ConfigFile::Section* sec :
       file.sections_named("scenario")) {
    if (sec->arg.empty()) continue;
    specs.push_back(parse_one(file, sec->arg));
  }
  return specs;
}

// --- runner ------------------------------------------------------------------

namespace {

/// Background flooder state: one tick drains the flood NF's OBQ and (while
/// injecting) blasts one quota-checked burst at the shared hardware
/// function.  Heap-allocated so the self-rescheduling sim events outlive
/// the enclosing scope's locals.
struct BgFlood {
  runtime::DhlRuntime& rt;
  netio::MbufPool& pool;
  netio::NfId nf;
  netio::AccId acc;
  BackgroundTenantSpec spec;
  Xoshiro256 rng;
  bool injecting = true;
  bool running = true;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
};

void bg_tick(sim::Simulator& sim, BgFlood* f) {
  if (!f->running) return;
  Mbuf* out[64];
  for (;;) {
    const std::size_t got =
        DHL_receive_packets(f->rt.get_private_obq(f->nf), out, 64);
    if (got == 0) break;
    for (std::size_t i = 0; i < got; ++i) out[i]->release();
  }
  if (f->injecting) {
    std::vector<Mbuf*> pkts;
    pkts.reserve(f->spec.burst);
    std::vector<std::uint8_t> payload(f->spec.frame_len);
    for (std::uint32_t i = 0; i < f->spec.burst; ++i) {
      Mbuf* m = f->pool.alloc();
      if (m == nullptr) break;
      f->rng.fill(payload.data(), payload.size());
      m->assign(payload);
      m->set_nf_id(f->nf);
      m->set_acc_id(f->acc);
      m->set_rx_timestamp(sim.now() == 0 ? 1 : sim.now());
      pkts.push_back(m);
    }
    const std::size_t sent =
        f->rt.send_packets(f->nf, pkts.data(), pkts.size());
    f->admitted += sent;
    f->rejected += pkts.size() - sent;
    for (std::size_t i = sent; i < pkts.size(); ++i) pkts[i]->release();
  }
  sim.schedule_after(f->spec.period, [&sim, f] { bg_tick(sim, f); });
}

std::string tenants_tally_json(const std::vector<TenantAudit>& rows) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const TenantAudit& t = rows[i];
    if (i > 0) os << ", ";
    os << "{\"tenant\": \"" << t.tenant << "\", \"tracked\": " << t.admitted
       << ", \"delivered\": " << t.delivered << ", \"dropped\": " << t.dropped
       << ", \"live\": " << t.live()
       << ", \"clean\": " << (t.clean() ? "true" : "false") << "}";
  }
  os << "]";
  return os.str();
}

}  // namespace

ScenarioRunner::ScenarioRunner(ScenarioRunnerOptions options)
    : options_{std::move(options)} {}

ScenarioResult ScenarioRunner::run(const ScenarioSpec& spec) {
  ScenarioResult r;
  r.name = spec.name;
  r.expect = spec.expect;
  const std::uint64_t seed = scenario_seed(spec.seed);

  const bool chained = !spec.chain.empty();
  const bool nids = !chained && spec.hf == "pattern-matching";
  const bool wants_pm =
      nids || std::find(spec.chain.begin(), spec.chain.end(),
                        "pattern-matching") != spec.chain.end();

  nf::TestbedConfig tb_cfg;
  tb_cfg.introspection.sample_period = spec.sample_period;
  tb_cfg.introspection.flight_dump_path = options_.flight_dump_path;
  telemetry::SloSpec slo;
  slo.nf = "*";
  slo.tenant = "primary";
  slo.p99_ceiling = spec.p99_ceiling;
  slo.p999_ceiling = spec.p999_ceiling;
  slo.drop_rate_budget = spec.drop_rate_budget;
  tb_cfg.introspection.slos.push_back(slo);

  nf::Testbed tb{tb_cfg};
  netio::NicPort* port = tb.add_port("p0", Bandwidth::gbps(spec.link_gbps));

  auto rules =
      std::make_shared<match::RuleSet>(match::RuleSet::builtin_snort_sample());
  auto automaton =
      wants_pm ? nf::NidsProcessor::build_automaton(*rules) : nullptr;
  auto& rt = tb.init_runtime(automaton);

  const TenantId primary = rt.register_tenant("primary", TenantQuota{});
  DHL_CHECK(primary != kInvalidTenant);

  // NF over the scenario's hardware function, bound to the primary tenant.
  std::shared_ptr<nf::NidsProcessor> nids_proc;
  if (nids) nids_proc = std::make_shared<nf::NidsProcessor>(rules, automaton);
  nf::DhlNfConfig nf_cfg;
  nf_cfg.name = "primary-nf";
  nf_cfg.timing = tb.timing();
  nf_cfg.hf_name = spec.hf;
  nf_cfg.tenant = primary;
  std::unique_ptr<nf::DhlOffloadNf> nf;
  std::unique_ptr<nf::ChainNf> chain_nf;
  if (chained) {
    nf::ChainConfig chain_cfg;
    chain_cfg.name = "primary-nf";
    chain_cfg.timing = tb.timing();
    chain_cfg.tenant = primary;
    chain_cfg.fuse = spec.chain_fuse;
    std::vector<nf::ChainStage> stages;
    for (const std::string& hf : spec.chain) {
      std::vector<std::uint8_t> cfg;
      if (hf == "aes256-ctr") cfg = accel::aes256_ctr_test_config();
      stages.push_back(
          nf::ChainStage::offload(hf, hf, std::move(cfg), nullptr, nullptr));
    }
    chain_nf = std::make_unique<nf::ChainNf>(
        tb.sim(), chain_cfg, std::vector<netio::NicPort*>{port}, &rt,
        std::move(stages));
  } else if (nids) {
    nf = std::make_unique<nf::DhlOffloadNf>(
        tb.sim(), nf_cfg, std::vector<netio::NicPort*>{port}, rt,
        [nids_proc](Mbuf& m) { return nids_proc->dhl_prep(m); },
        nf::nids_dhl_prep_cost(tb.timing()),
        [nids_proc](Mbuf& m) { return nids_proc->dhl_post(m); },
        nf::nids_dhl_post_cost(tb.timing()));
  } else {
    nf = std::make_unique<nf::DhlOffloadNf>(
        tb.sim(), nf_cfg, std::vector<netio::NicPort*>{port}, rt,
        [](Mbuf&) { return nf::Verdict::kForward; },
        [](const Mbuf&) { return 30.0; },
        [](Mbuf&) { return nf::Verdict::kForward; },
        [](const Mbuf&) { return 30.0; });
  }
  // PR load: a fused chain reprograms a region with the summed partial
  // bitstream (tens of ms through ICAP), so poll instead of a fixed wait.
  const auto primary_ready = [&] {
    return chained ? chain_nf->ready() : nf->ready();
  };
  for (int i = 0; i < 30 && !primary_ready(); ++i) {
    tb.run_for(milliseconds(10));
  }
  DHL_CHECK_MSG(primary_ready(), "scenario hf never became ready");
  rt.start();
  if (chained) {
    chain_nf->start();
  } else {
    nf->start();
  }

  // Software fallback: if a fault overlay quarantines every replica, the
  // multi-lane CPU kernel keeps the scenario flowing (counted under
  // dhl.fallback.pkts) instead of blackholing it.
  if (nids) {
    auto soft = std::make_shared<accel::PatternMatchingModule>(automaton);
    rt.register_fallback_batch(
        nf->nf_id(), spec.hf, [soft](std::span<Mbuf* const> pkts) {
          std::vector<std::span<std::uint8_t>> datas;
          std::vector<fpga::ProcessResult> results(pkts.size());
          datas.reserve(pkts.size());
          for (Mbuf* m : pkts) datas.emplace_back(m->data(), m->data_len());
          soft->process_batch(datas, results);
          for (std::size_t i = 0; i < pkts.size(); ++i) {
            pkts[i]->set_accel_result(results[i].result);
          }
        });
  }

  // Fault-soak overlay: windows are relative to traffic start.
  const Picos t0 = tb.sim().now();
  std::unique_ptr<runtime::FaultInjector> injector;
  if (spec.fault.enabled) {
    const auto site = runtime::fault_site_from_string(spec.fault.site);
    const auto kind = runtime::fault_kind_from_string(spec.fault.kind);
    DHL_CHECK_MSG(site.has_value() && kind.has_value(),
                  "unknown fault site/kind in scenario spec");
    injector = std::make_unique<runtime::FaultInjector>(
        tb.sim(), tb.telemetry(), seed ^ 0xFA171ULL);
    runtime::FaultRule rule;
    rule.site = *site;
    rule.kind = *kind;
    rule.probability = spec.fault.probability;
    rule.active_from = t0 + spec.fault.active_from;
    if (spec.fault.active_until != ~Picos{0}) {
      rule.active_until = t0 + spec.fault.active_until;
    }
    rule.max_count = spec.fault.max_count;
    injector->add_rule(rule);
    rt.set_fault_injector(injector.get());
  }

  // Background flooder tenant.
  std::unique_ptr<BgFlood> flood;
  if (spec.background.enabled) {
    const TenantId bg_tenant = rt.register_tenant(
        "background",
        TenantQuota{.outstanding_bytes_cap = spec.background.quota_bytes});
    DHL_CHECK(bg_tenant != kInvalidTenant);
    const netio::NfId bg_nf =
        rt.register_nf("background.flood", 0, bg_tenant);
    const runtime::AccHandle bg_handle = rt.search_by_name(spec.hf, 0);
    DHL_CHECK(bg_handle.valid());
    flood = std::make_unique<BgFlood>(BgFlood{
        .rt = rt,
        .pool = tb.pool(0),
        .nf = bg_nf,
        .acc = bg_handle.acc_id,
        .spec = spec.background,
        .rng = Xoshiro256{seed ^ 0xB66F100Dull},
    });
    bg_tick(tb.sim(), flood.get());
  }

  tb.start_introspection();
  tb.slo_watchdog()->set_hysteresis(spec.enter_after, spec.exit_after);

  // Primary traffic: the workload model owns sizes, flows and arrivals.
  WorkloadConfig wl = spec.workload;
  wl.seed = seed;
  WorkloadModel model{wl};
  netio::TrafficConfig traffic;
  traffic.num_flows = spec.workload.flow.flows;
  if (nids) {
    traffic.payload = netio::PayloadKind::kTextAttacks;
    traffic.attack_probability = spec.attack_probability;
    const auto& patterns = rules->patterns();
    for (std::size_t i = 0; i < patterns.size() && i < 4; ++i) {
      traffic.attack_strings.push_back(patterns[i]);
    }
  } else {
    traffic.payload = netio::PayloadKind::kText;
  }
  model.bind(traffic);
  port->start_traffic(traffic);

  tb.measure(spec.warmup, spec.window);

  // Measurement-window statistics (before quiesce stops the traffic).
  r.forwarded = port->tx_meter().frames();
  r.offered_gbps = port->rx_meter().wire_rate(spec.window).gbps();
  r.forwarded_gbps = port->tx_meter().wire_rate(spec.window).gbps();
  r.p50_us = to_microseconds(port->latency().percentile(0.5));
  r.p99_us = to_microseconds(port->latency().percentile(0.99));
  r.p999_us = to_microseconds(port->latency().percentile(0.999));

  // Conservation protocol: stop injection, drain, audit.
  if (flood != nullptr) flood->injecting = false;
  r.ledger_clean = tb.quiesce_ledger(spec.settle).clean();
  const std::vector<TenantAudit> tenant_rows = rt.tenants().audit();
  r.tenants_clean = true;
  for (const TenantAudit& t : tenant_rows) r.tenants_clean &= t.clean();
  r.tenants_drained = rt.tenants().drained();
  r.tenants_json = tenants_tally_json(tenant_rows);
  if (flood != nullptr) {
    flood->running = false;
    r.background_admitted = flood->admitted;
    r.background_rejected = flood->rejected;
  }

  // SLO verdict for the primary tenant.
  const telemetry::SloWatchdog* dog = tb.slo_watchdog();
  r.slo_evaluations = dog->evaluations();
  for (const telemetry::SloVerdict& v : dog->verdicts()) {
    if (v.spec.tenant != "primary") continue;
    r.breach_episodes = v.breach_episodes;
    r.final_breached = v.breached;
  }
  r.slo_ok = spec.expect == "breach"
                 ? (r.breach_episodes >= 1 && !r.final_breached)
                 : (r.breach_episodes == 0);
  r.slo_verdicts_json = dog->verdicts_json();

  const telemetry::MetricsSnapshot snap =
      tb.telemetry().metrics.snapshot(tb.sim().now());
  {
    std::ostringstream os;
    telemetry::SloWatchdog::write_drop_sites_json(os, snap);
    r.drop_sites_json = os.str();
  }
  r.stage_json = tb.telemetry().stages.to_json();
  r.fallback_pkts = static_cast<std::uint64_t>(snap.sum("dhl.fallback.pkts"));
  r.faults_injected = injector != nullptr ? injector->injected_total() : 0;

  if (port->factory() != nullptr) {
    r.generated = port->factory()->frames_built();
    r.attack_frames = port->factory()->attack_frames();
    r.stream_digest = port->factory()->stream_digest();
  }

  // Verdict: SLO expectation plus conservation invariants.
  r.pass = r.slo_ok && r.ledger_clean && r.tenants_clean && r.tenants_drained;
  if (!r.slo_ok) {
    r.detail = spec.expect == "breach"
                   ? (r.breach_episodes == 0
                          ? "expected a breach episode, saw none"
                          : "breached without recovering")
                   : "slo breached";
  } else if (!r.ledger_clean) {
    r.detail = "ledger audit not clean";
  } else if (!r.tenants_clean) {
    r.detail = "per-tenant conservation not clean";
  } else if (!r.tenants_drained) {
    r.detail = "tenant outstanding bytes not drained";
  }

  if (chained) {
    chain_nf->stop();
  } else {
    nf->stop();
  }
  rt.set_fault_injector(nullptr);
  tb.stop_introspection();
  return r;
}

void write_scenarios_json(std::ostream& os,
                          const std::vector<ScenarioResult>& results,
                          std::uint64_t seed) {
  std::size_t passed = 0;
  for (const ScenarioResult& r : results) passed += r.pass ? 1 : 0;
  os << "{\n  \"bench\": \"scenarios\",\n  \"seed\": " << seed
     << ",\n  \"total\": " << results.size() << ",\n  \"passed\": " << passed
     << ",\n  \"failed\": " << results.size() - passed
     << ",\n  \"scenarios\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScenarioResult& r = results[i];
    os << "    {\"name\": \"" << r.name << "\", \"pass\": "
       << (r.pass ? "true" : "false") << ",\n     \"expect\": \"" << r.expect
       << "\", \"detail\": \"" << r.detail << "\",\n     \"slo_ok\": "
       << (r.slo_ok ? "true" : "false")
       << ", \"breach_episodes\": " << r.breach_episodes
       << ", \"final_breached\": " << (r.final_breached ? "true" : "false")
       << ", \"slo_evaluations\": " << r.slo_evaluations
       << ",\n     \"ledger_clean\": " << (r.ledger_clean ? "true" : "false")
       << ", \"tenants_clean\": " << (r.tenants_clean ? "true" : "false")
       << ", \"tenants_drained\": "
       << (r.tenants_drained ? "true" : "false")
       << ",\n     \"generated\": " << r.generated
       << ", \"attack_frames\": " << r.attack_frames
       << ", \"stream_digest\": " << r.stream_digest
       << ", \"forwarded\": " << r.forwarded
       << ", \"faults_injected\": " << r.faults_injected
       << ", \"fallback_pkts\": " << r.fallback_pkts
       << ",\n     \"background_admitted\": " << r.background_admitted
       << ", \"background_rejected\": " << r.background_rejected
       << ",\n     \"offered_gbps\": " << r.offered_gbps
       << ", \"forwarded_gbps\": " << r.forwarded_gbps
       << ", \"p50_us\": " << r.p50_us << ", \"p99_us\": " << r.p99_us
       << ", \"p999_us\": " << r.p999_us
       << ",\n     \"slo_verdicts\": " << r.slo_verdicts_json
       << ",\n     \"drop_sites\": " << r.drop_sites_json
       << ",\n     \"stages\": " << r.stage_json
       << ",\n     \"tenants\": " << r.tenants_json << "}"
       << (i + 1 < results.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace dhl::workload
