// Extension bench: NF service chains (the NFV scenario motivating the
// paper's intro).  Compares the NIDS -> IPsec egress chain in two builds:
//
//   * CPU-only chain: both deep stages run on worker cores
//     (pipeline mode, 2 workers -- same cores as the Fig 6 CPU baseline);
//   * DHL chain: both stages offload to their modules on one FPGA
//     (two DMA round trips per packet).
//
// Also sweeps chain depth (1..3 offload stages) to show how the per-FPGA
// DMA budget divides across stages.
//
// `--chain-out=<path>` switches to the fabric-fusion suite (DESIGN.md 3.7)
// and writes BENCH_chain.json: fused-vs-per-stage capacity for the
// md5-auth -> aes256-ctr chain (the CI-gated >= 1.5x series: a
// non-shrinking first stage makes the per-stage build cross PCIe twice
// per packet), the CompNcrypt compression -> aes256-ctr parity exemplar,
// and a per-engine-count scaling series via DHL_replicate.

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "dhl/accel/extra_modules.hpp"
#include "dhl/nf/chain.hpp"

namespace dhl::bench {
namespace {

struct ChainResult {
  double gbps;
  double p50_us;
};

ChainResult run_chain(bool offload, std::uint32_t frame_len, double offered) {
  nf::TestbedConfig tb_cfg;
  nf::Testbed tb{tb_cfg};
  auto* port = tb.add_port("p0", Bandwidth::gbps(40));

  auto rules = std::make_shared<match::RuleSet>(
      match::RuleSet::builtin_snort_sample());
  auto automaton = nf::NidsProcessor::build_automaton(*rules);
  const auto sa = nf::test_security_association();
  auto nids = std::make_shared<nf::NidsProcessor>(rules, automaton);
  auto ipsec = std::make_shared<nf::IpsecProcessor>(sa, nf::IpsecPolicy{});

  std::unique_ptr<nf::ChainNf> chain;
  if (offload) {
    auto& rt = tb.init_runtime(automaton);
    std::vector<nf::ChainStage> stages;
    stages.push_back(nf::ChainStage::offload(
        "nids", "pattern-matching", {},
        [nids](netio::Mbuf& m) { return nids->dhl_post(m); },
        nf::nids_dhl_post_cost(tb.timing())));
    stages.push_back(nf::ChainStage::cpu(
        "esp-encap", [ipsec](netio::Mbuf& m) { return ipsec->dhl_prep(m); },
        nf::ipsec_dhl_prep_cost(tb.timing())));
    stages.push_back(nf::ChainStage::offload(
        "ipsec", "ipsec-crypto", accel::ipsec_module_config(false, sa),
        [ipsec](netio::Mbuf& m) { return ipsec->dhl_post(m); },
        nf::ipsec_dhl_post_cost(tb.timing())));
    chain = std::make_unique<nf::ChainNf>(
        tb.sim(), nf::ChainConfig{.timing = tb.timing()},
        std::vector<netio::NicPort*>{port}, &rt, std::move(stages));
    tb.run_for(milliseconds(70));
    rt.start();
    chain->start();
  } else {
    // CPU-only: one worker stage doing scan + encrypt, costs summed.
    nf::ChainConfig cfg;
    cfg.name = "chain-cpu";
    cfg.timing = tb.timing();
    cfg.layout = nf::CoreLayout::kPipeline;
    cfg.workers = 2;
    auto nids_cost = nf::nids_cpu_cost(tb.timing());
    auto ipsec_cost = nf::ipsec_cpu_cost(tb.timing());
    std::vector<nf::ChainStage> stages;
    stages.push_back(nf::ChainStage::cpu(
        "nids+ipsec",
        [nids, ipsec](netio::Mbuf& m) {
          if (nids->cpu_process(m) == nf::Verdict::kDrop) {
            return nf::Verdict::kDrop;
          }
          return ipsec->cpu_encrypt(m);
        },
        [nids_cost, ipsec_cost](const netio::Mbuf& m) {
          return nids_cost(m) + ipsec_cost(m);
        }));
    chain = std::make_unique<nf::ChainNf>(
        tb.sim(), cfg, std::vector<netio::NicPort*>{port}, nullptr,
        std::move(stages));
    chain->start();
  }

  netio::TrafficConfig traffic;
  traffic.frame_len = frame_len;
  port->start_traffic(traffic, offered);
  tb.measure(milliseconds(3), milliseconds(6));
  return {nf::forwarded_wire_gbps(*port, frame_len, milliseconds(6)),
          to_microseconds(port->latency().percentile(0.5))};
}

double run_depth(std::size_t offload_stages, std::uint32_t frame_len) {
  nf::TestbedConfig tb_cfg;
  nf::Testbed tb{tb_cfg};
  auto* port = tb.add_port("p0", Bandwidth::gbps(40));
  auto& rt = tb.init_runtime(nullptr);

  // Depth-N chain of loopback offloads: pure transfer-layer cost.
  std::vector<nf::ChainStage> stages;
  for (std::size_t i = 0; i < offload_stages; ++i) {
    stages.push_back(nf::ChainStage::offload(
        "hop" + std::to_string(i), "loopback", {}, nullptr,
        [](const netio::Mbuf&) { return 5.0; }));
  }
  nf::ChainNf chain{tb.sim(), nf::ChainConfig{.timing = tb.timing()},
                    {port}, &rt, std::move(stages)};
  tb.run_for(milliseconds(10));
  rt.start();
  chain.start();

  netio::TrafficConfig traffic;
  traffic.frame_len = frame_len;
  port->start_traffic(traffic, 1.0);
  tb.measure(milliseconds(3), milliseconds(6));
  return nf::forwarded_wire_gbps(*port, frame_len, milliseconds(6));
}

// --- fabric-fusion suite (--chain-out) ---------------------------------------

/// One all-offload chain run: `hfs` back to back, fused through
/// DHL_compose_chain when `fuse` (per-stage round trips otherwise), with
/// the fused handle optionally replicated across `engines` PR regions.
ChainResult run_fused(const std::vector<std::string>& hfs, bool fuse,
                      std::uint32_t frame_len, double offered,
                      netio::PayloadKind payload, std::size_t engines = 1) {
  nf::TestbedConfig tb_cfg;
  nf::Testbed tb{tb_cfg};
  auto* port = tb.add_port("p0", Bandwidth::gbps(40));
  auto& rt = tb.init_runtime(nullptr);

  std::vector<nf::ChainStage> stages;
  std::string chain_name;
  for (const std::string& hf : hfs) {
    std::vector<std::uint8_t> cfg;
    if (hf == "aes256-ctr") cfg = accel::aes256_ctr_test_config();
    stages.push_back(
        nf::ChainStage::offload(hf, hf, std::move(cfg), nullptr, nullptr));
    chain_name += (chain_name.empty() ? "" : "+") + hf;
  }
  nf::ChainNf chain{tb.sim(),
                    nf::ChainConfig{.timing = tb.timing(), .fuse = fuse},
                    {port}, &rt, std::move(stages)};
  for (int i = 0; i < 30 && !chain.ready(); ++i) tb.run_for(milliseconds(10));
  if (fuse && engines > 1) {
    DHL_replicate(rt, chain_name, engines);
    tb.run_for(milliseconds(120));  // replica PR loads
  }
  rt.start();
  chain.start();

  netio::TrafficConfig traffic;
  traffic.frame_len = frame_len;
  traffic.payload = payload;
  port->start_traffic(traffic, offered);
  tb.measure(milliseconds(3), milliseconds(6));
  return {nf::forwarded_wire_gbps(*port, frame_len, milliseconds(6)),
          to_microseconds(port->latency().percentile(0.5))};
}

/// Parse `--chain-out=<path>` (empty when absent).
std::string chain_out_arg(int argc, char** argv) {
  constexpr const char* kPrefix = "--chain-out=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], kPrefix, std::strlen(kPrefix)) == 0) {
      return argv[i] + std::strlen(kPrefix);
    }
  }
  return {};
}

struct FusedRow {
  std::uint32_t frame_len;
  double fused_gbps, split_gbps, speedup;
  double fused_p50_us, split_p50_us;
};

std::vector<FusedRow> run_fused_series(const std::vector<std::string>& hfs,
                                       netio::PayloadKind payload) {
  std::vector<FusedRow> rows;
  for (const std::uint32_t size : {512u, 1024u, 1500u}) {
    FusedRow row;
    row.frame_len = size;
    const ChainResult fused = run_fused(hfs, true, size, 1.0, payload);
    const ChainResult split = run_fused(hfs, false, size, 1.0, payload);
    row.fused_gbps = fused.gbps;
    row.split_gbps = split.gbps;
    row.speedup = split.gbps > 0 ? fused.gbps / split.gbps : 0;
    // Latency at 85% of each build's own capacity (finite queues).
    row.fused_p50_us =
        run_fused(hfs, true, size, 0.85 * fused.gbps / 40.0, payload).p50_us;
    row.split_p50_us =
        run_fused(hfs, false, size, 0.85 * split.gbps / 40.0, payload).p50_us;
    rows.push_back(row);
  }
  return rows;
}

void print_fused_series(const char* title, const std::vector<FusedRow>& rows) {
  print_title(title);
  std::printf("%-8s | %10s | %10s | %8s | %12s | %12s\n", "size", "fused",
              "per-stage", "speedup", "fused p50", "split p50");
  print_rule(76);
  for (const FusedRow& r : rows) {
    std::printf("%-8u | %8.2f G | %8.2f G | %7.2fx | %9.2f us | %9.2f us\n",
                r.frame_len, r.fused_gbps, r.split_gbps, r.speedup,
                r.fused_p50_us, r.split_p50_us);
  }
}

void write_series(std::ofstream& f, const std::vector<FusedRow>& rows) {
  f << "[\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const FusedRow& r = rows[i];
    f << "      {\"frame_len\": " << r.frame_len
      << ", \"fused_gbps\": " << r.fused_gbps
      << ", \"split_gbps\": " << r.split_gbps
      << ", \"speedup\": " << r.speedup
      << ", \"fused_p50_us\": " << r.fused_p50_us
      << ", \"split_p50_us\": " << r.split_p50_us << "}"
      << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  f << "    ]";
}

int run_chain_suite(const std::string& out_path) {
  // The gated chain: md5-auth never shrinks a record, so the per-stage
  // build pays two full PCIe round trips per packet where the fused build
  // pays one -- the transfer-layer saving fusion exists for.
  const std::vector<std::string> gate_hfs{"md5-auth", "aes256-ctr"};
  const std::vector<FusedRow> gate =
      run_fused_series(gate_hfs, netio::PayloadKind::kRandom);
  print_fused_series("md5-auth -> aes256-ctr: fused vs per-stage (40G)",
                     gate);

  // CompNcrypt: the compression stage shrinks the record, so the split
  // build's second round trip is cheap and its two modules overlap in
  // separate PR regions, letting it exceed the fused build's 24 Gbps
  // single-region bottleneck on throughput -- fusion's win here is the
  // halved p50 (one PCIe crossing) and the freed region, not capacity.
  // This is the bit-parity exemplar of the fused-vs-split tests.
  const std::vector<std::string> compnc_hfs{"compression", "aes256-ctr"};
  const std::vector<FusedRow> compnc =
      run_fused_series(compnc_hfs, netio::PayloadKind::kText);
  print_fused_series("CompNcrypt compression -> aes256-ctr (text payload)",
                     compnc);

  // Per-engine scaling: replicate the fused CompNcrypt chain handle across
  // PR regions; the 24 Gbps fabric bottleneck doubles before the DMA
  // budget takes over.
  print_title("Fused CompNcrypt scaling vs engine count (1500 B, text)");
  std::printf("%-8s %14s\n", "engines", "throughput");
  print_rule(28);
  std::vector<double> scaling;
  for (std::size_t engines = 1; engines <= 4; ++engines) {
    const ChainResult r = run_fused(compnc_hfs, true, 1500, 1.0,
                                    netio::PayloadKind::kText, engines);
    scaling.push_back(r.gbps);
    std::printf("%-8zu %11.2f G\n", engines, r.gbps);
  }

  std::ofstream f{out_path};
  if (!f) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  f.precision(4);
  f << std::fixed;
  const FusedRow& gated = gate.back();  // 1500 B row
  f << "{\n  \"bench\": \"chain\",\n"
    << "  \"fused_gate\": {\"chain\": \"md5-auth+aes256-ctr\", "
    << "\"frame_len\": " << gated.frame_len
    << ", \"fused_gbps\": " << gated.fused_gbps
    << ", \"split_gbps\": " << gated.split_gbps
    << ", \"speedup\": " << gated.speedup << "},\n"
    << "  \"series\": {\n"
    << "    \"md5_auth_aes256_ctr\": ";
  write_series(f, gate);
  f << ",\n    \"compncrypt\": ";
  write_series(f, compnc);
  f << "\n  },\n  \"scaling\": {\"chain\": \"compression+aes256-ctr\", "
    << "\"frame_len\": 1500, \"gbps_by_engines\": [";
  for (std::size_t i = 0; i < scaling.size(); ++i) {
    f << scaling[i] << (i + 1 < scaling.size() ? ", " : "");
  }
  f << "]}\n}\n";
  if (!f.good()) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\nchain-bench JSON written to %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace dhl::bench

int main(int argc, char** argv) {
  using namespace dhl;
  using namespace dhl::bench;

  const std::string chain_out = chain_out_arg(argc, argv);
  if (!chain_out.empty()) return run_chain_suite(chain_out);

  print_title("Service chain NIDS -> IPsec: CPU-only vs DHL (40G port)");
  std::printf("%-8s | %12s | %12s | %16s\n", "size", "CPU-only", "DHL chain",
              "DHL p50 lat (us)");
  print_rule(60);
  for (const std::uint32_t size : kPacketSizes) {
    const ChainResult cpu = run_chain(false, size, 1.0);
    const ChainResult dhl_cap = run_chain(true, size, 1.0);
    // Latency at 85% of the DHL chain's capacity.
    const ChainResult dhl_lat =
        run_chain(true, size, 0.85 * dhl_cap.gbps / 40.0);
    std::printf("%-8u | %10.2f G | %10.2f G | %16.2f\n", size, cpu.gbps,
                dhl_cap.gbps, dhl_lat.p50_us);
  }
  std::printf(
      "\nthe DHL chain carries every packet through two modules, so its\n"
      "ceiling is about half the single-NF DMA budget; it still beats the\n"
      "CPU-only chain several-fold with the same CPU cores.\n");

  print_title("Chain-depth sweep (loopback offload hops, 512 B)");
  std::printf("%-8s %14s\n", "hops", "throughput");
  print_rule(28);
  for (const std::size_t depth : {1u, 2u, 3u}) {
    std::printf("%-8zu %11.2f G\n", depth, run_depth(depth, 512));
  }
  std::printf("\nthroughput divides by the number of DMA traversals.\n");
  return 0;
}
