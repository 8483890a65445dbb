#pragma once

// Declarative adversarial scenarios (DESIGN.md section 3.6).
//
// A ScenarioSpec composes the workload generators with a full testbed run:
// the multi-tenant DHL runtime serves a primary tenant's offload NF (plus an
// optional background flooder tenant), an optional FaultInjector overlay
// misbehaves on schedule, and the SloWatchdog judges the run against
// declarative p99/p999/drop budgets.  Specs parse from `[scenario <name>]`
// sections of the shared INI ConfigFile format; bench_scenarios runs the
// matrix and emits BENCH_scenarios.json.
//
// Pass semantics: `expect = pass` scenarios must never enter the breached
// state; `expect = breach` scenarios (designed overloads, e.g. flash-crowd)
// must trip at least one breach episode AND recover (hysteresis exit) before
// the run ends.  Every scenario additionally requires a clean ledger audit
// (ledger builds), clean per-tenant conservation (TenantRegistry::audit, every
// build), and a fully drained tenant registry.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "dhl/common/config_file.hpp"
#include "dhl/common/units.hpp"
#include "dhl/workload/generators.hpp"

namespace dhl::workload {

inline constexpr std::uint64_t kDefaultScenarioSeed = 0x5CE11A210ULL;

/// Scenario seed honoring the DHL_SCENARIO_SEED environment override
/// (mirrors DHL_FUZZ_SEED: parsed with base-0 strtoull when set).
std::uint64_t scenario_seed(std::uint64_t fallback = kDefaultScenarioSeed);

/// Fault-soak overlay: one FaultRule built from the canonical site/kind
/// names (fpga::to_string) via runtime::fault_*_from_string.
struct FaultOverlaySpec {
  bool enabled = false;
  std::string site = "dma.submit";
  std::string kind = "submit_timeout";
  double probability = 0.02;
  Picos active_from = 0;
  Picos active_until = ~Picos{0};
  std::uint64_t max_count = ~std::uint64_t{0};
};

/// Background flooder: a second tenant with a tight outstanding-bytes quota
/// blasting bursts at the same hardware function, so the primary tenant's
/// SLO is judged under admission pressure.
struct BackgroundTenantSpec {
  bool enabled = false;
  std::uint64_t quota_bytes = 64 * 1024;
  std::uint32_t burst = 64;
  std::uint32_t frame_len = 1024;
  Picos period = microseconds(20);
};

struct ScenarioSpec {
  std::string name;
  WorkloadConfig workload;

  /// Hardware function the primary NF offloads to ("pattern-matching" or
  /// "loopback").
  std::string hf = "pattern-matching";
  /// Service chain: ordered hf names (INI: `chain = compression,aes256-ctr`)
  /// run by a ChainNf primary instead of the single-hf offload NF.  Maximal
  /// offload runs fuse through DHL_compose_chain unless chain_fuse = off.
  std::vector<std::string> chain;
  bool chain_fuse = true;
  /// Embedded-attack probability for pattern-matching payloads (ground
  /// truth for the NIDS rule-option stage).
  double attack_probability = 0.02;

  double link_gbps = 40.0;
  Picos warmup = milliseconds(2);
  Picos window = milliseconds(10);
  Picos settle = milliseconds(5);

  // Primary-tenant SLO budgets (strict windowed comparisons; 0 / negative
  // fields are unchecked, matching SloSpec).
  Picos p99_ceiling = microseconds(100);
  Picos p999_ceiling = 0;
  double drop_rate_budget = -1.0;
  std::uint32_t enter_after = 2;
  std::uint32_t exit_after = 2;
  Picos sample_period = microseconds(100);

  /// "pass" or "breach" (breach-and-recover); see header comment.
  std::string expect = "pass";

  BackgroundTenantSpec background;
  FaultOverlaySpec fault;

  std::uint64_t seed = kDefaultScenarioSeed;
};

/// Parse every `[scenario <name>]` section of `file`.  Unknown keys are
/// ignored; unparsable values fall back to defaults and land in
/// file.errors().
std::vector<ScenarioSpec> parse_scenarios(const common::ConfigFile& file);


struct ScenarioResult {
  std::string name;
  std::string expect;
  bool pass = false;
  std::string detail;  ///< first failed requirement; empty when pass

  // SLO outcome of the primary-tenant spec.
  bool slo_ok = false;
  std::uint64_t breach_episodes = 0;
  bool final_breached = false;
  std::uint64_t slo_evaluations = 0;

  // Conservation.
  bool ledger_clean = false;
  bool tenants_clean = false;
  bool tenants_drained = false;

  // Traffic accounting (cumulative over warmup + window + settle).
  std::uint64_t generated = 0;
  std::uint64_t attack_frames = 0;
  std::uint32_t stream_digest = 0;
  std::uint64_t forwarded = 0;  ///< measurement-window TX frames
  std::uint64_t faults_injected = 0;
  std::uint64_t fallback_pkts = 0;
  std::uint64_t background_admitted = 0;
  std::uint64_t background_rejected = 0;

  // Measurement-window port statistics.
  double offered_gbps = 0;
  double forwarded_gbps = 0;
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;

  // JSON fragments for the sidecar.
  std::string slo_verdicts_json;
  std::string drop_sites_json;
  std::string stage_json;
  std::string tenants_json;
};

struct ScenarioRunnerOptions {
  /// Flight-recorder auto-dump target (SLO breach windows land here);
  /// empty = dumps disabled.
  std::string flight_dump_path;
};

class ScenarioRunner {
 public:
  explicit ScenarioRunner(ScenarioRunnerOptions options = {});

  /// Run one scenario start-to-finish on a fresh testbed.  Deterministic:
  /// same spec + same seed => identical ScenarioResult (including the
  /// stream digest), which test_workload_determinism.cpp asserts.
  ScenarioResult run(const ScenarioSpec& spec);

 private:
  ScenarioRunnerOptions options_;
};

/// The BENCH_scenarios.json document for one matrix run.
void write_scenarios_json(std::ostream& os,
                          const std::vector<ScenarioResult>& results,
                          std::uint64_t seed);

}  // namespace dhl::workload
