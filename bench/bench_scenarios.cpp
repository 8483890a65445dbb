// bench_scenarios: run the adversarial scenario matrix (src/workload) and
// emit BENCH_scenarios.json -- per-scenario pass/fail verdicts, SLO
// breach/recovery accounting, stage-latency decompositions and drop-site
// breakdowns.
//
//   --list               print scenario names and exit
//   --config=<ini>       scenario matrix file (default: the committed
//                        bench/scenarios.conf)
//   --scenario=<name>    run only this scenario (repeatable)
//   --out=<path>         JSON sidecar path (default BENCH_scenarios.json)
//   --baseline=<path>    committed baseline; exit 1 on any pass -> fail
//                        verdict flip relative to it
//
// Without --baseline the exit code is 1 when any scenario fails, so the
// first baseline generation is strict too.  DHL_SCENARIO_SEED overrides the
// seed of every scenario (replay).

#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "dhl/common/config_file.hpp"
#include "dhl/workload/scenario.hpp"

namespace {

using dhl::workload::ScenarioResult;
using dhl::workload::ScenarioSpec;

std::string arg_value(const char* arg, const char* flag) {
  const std::size_t n = std::strlen(flag);
  if (std::strncmp(arg, flag, n) == 0 && arg[n] == '=') return arg + n + 1;
  return {};
}

/// Pull {"name" -> pass} out of a BENCH_scenarios.json document.  The
/// writer keeps both keys on one line per scenario, so a line scan is
/// enough -- no JSON parser dependency.
std::map<std::string, bool> read_baseline(const std::string& path) {
  std::map<std::string, bool> verdicts;
  std::ifstream in(path);
  if (!in) {
    std::cerr << "bench_scenarios: cannot read baseline " << path << "\n";
    return verdicts;
  }
  std::string line;
  while (std::getline(in, line)) {
    const auto name_key = line.find("\"name\": \"");
    const auto pass_key = line.find("\"pass\": ");
    if (name_key == std::string::npos || pass_key == std::string::npos) {
      continue;
    }
    const auto name_start = name_key + 9;
    const auto name_end = line.find('"', name_start);
    if (name_end == std::string::npos) continue;
    const std::string name = line.substr(name_start, name_end - name_start);
    verdicts[name] = line.compare(pass_key + 8, 4, "true") == 0;
  }
  return verdicts;
}

}  // namespace

int main(int argc, char** argv) {
  std::string config_path = DHL_SCENARIOS_CONF;
  std::string out_path = "BENCH_scenarios.json";
  std::string baseline_path;
  std::vector<std::string> only;
  bool list = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--list") == 0) {
      list = true;
    } else if (auto v = arg_value(argv[i], "--config"); !v.empty()) {
      config_path = v;
    } else if (auto v = arg_value(argv[i], "--scenario"); !v.empty()) {
      only.push_back(v);
    } else if (auto v = arg_value(argv[i], "--out"); !v.empty()) {
      out_path = v;
    } else if (auto v = arg_value(argv[i], "--baseline"); !v.empty()) {
      baseline_path = v;
    } else {
      std::cerr << "bench_scenarios: unknown argument " << argv[i] << "\n"
                << "usage: bench_scenarios [--list] [--config=<ini>]\n"
                << "       [--scenario=<name>]... [--out=<path>]\n"
                << "       [--baseline=<path>]\n";
      return 2;
    }
  }

  dhl::common::ConfigFile file;
  if (!file.load_file(config_path)) {
    std::cerr << "bench_scenarios: cannot read " << config_path << "\n";
    return 2;
  }
  for (const std::string& e : file.errors()) {
    std::cerr << "bench_scenarios: config: " << e << "\n";
  }
  std::vector<ScenarioSpec> specs = dhl::workload::parse_scenarios(file);
  if (!only.empty()) {
    std::vector<ScenarioSpec> filtered;
    for (const std::string& name : only) {
      bool found = false;
      for (const ScenarioSpec& s : specs) {
        if (s.name == name) {
          filtered.push_back(s);
          found = true;
        }
      }
      if (!found) {
        std::cerr << "bench_scenarios: no scenario named " << name << "\n";
        return 2;
      }
    }
    specs = std::move(filtered);
  }
  if (list) {
    for (const ScenarioSpec& s : specs) {
      std::cout << s.name << "  (expect " << s.expect << ")\n";
    }
    return 0;
  }
  if (specs.empty()) {
    std::cerr << "bench_scenarios: no scenarios to run\n";
    return 2;
  }

  dhl::workload::ScenarioRunner runner{
      {.flight_dump_path = "scenario_flight.json"}};
  std::vector<ScenarioResult> results;
  bool any_failed = false;
  for (const ScenarioSpec& spec : specs) {
    std::cout << "=== scenario " << spec.name << " (expect " << spec.expect
              << ") ===" << std::endl;
    ScenarioResult r = runner.run(spec);
    std::cout << "    " << (r.pass ? "PASS" : "FAIL")
              << (r.detail.empty() ? "" : "  [" + r.detail + "]")
              << "  breaches=" << r.breach_episodes
              << " fwd=" << r.forwarded_gbps << " Gbps p99=" << r.p99_us
              << " us digest=0x" << std::hex << r.stream_digest << std::dec
              << "\n";
    any_failed |= !r.pass;
    results.push_back(std::move(r));
  }

  {
    std::ofstream out(out_path);
    dhl::workload::write_scenarios_json(out, results,
                                        dhl::workload::scenario_seed());
    std::cout << "wrote " << out_path << "\n";
  }

  if (!baseline_path.empty()) {
    const std::map<std::string, bool> baseline = read_baseline(baseline_path);
    bool flipped = false;
    for (const ScenarioResult& r : results) {
      const auto it = baseline.find(r.name);
      if (it == baseline.end()) {
        std::cout << "note: scenario " << r.name << " not in baseline\n";
        continue;
      }
      if (it->second && !r.pass) {
        std::cerr << "REGRESSION: scenario " << r.name
                  << " flipped pass -> fail (" << r.detail << ")\n";
        flipped = true;
      }
    }
    return flipped ? 1 : 0;
  }
  return any_failed ? 1 : 0;
}
