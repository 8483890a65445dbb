// Figure 6(a,b) reproduction: single IPsec gateway on a 40G port --
// throughput and processing latency vs packet size, for CPU-only (4 cores:
// 2 I/O + 2 workers), DHL (4 cores: 2 I/O + 2 runtime), and the raw-I/O
// baseline (2 cores).  The ClickNP series is transcribed from the paper's
// figure for reference (ClickNP is closed-source; see DESIGN.md).

#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace dhl;
  using namespace dhl::bench;

  // Paper values read off Fig 6(a)/(b) for comparison.
  const double paper_dhl_thr[] = {19.4, 24.0, 31.0, 36.5, 38.8, 39.6};
  const double paper_cpu_thr[] = {2.5, 3.2, 4.4, 5.6, 6.7, 7.3};
  const double clicknp_thr[] = {25.6, 30.7, 36.2, 38.9, 39.7, 39.9};
  const double paper_dhl_lat[] = {9.0, 8.0, 7.0, 6.5, 6.0, 6.0};
  const double paper_cpu_lat[] = {21.0, 26.0, 35.0, 45.0, 60.0, 72.0};
  const double clicknp_lat[] = {38.0, 40.0, 42.0, 45.0, 50.0, 54.0};

  print_title(
      "Figure 6(a): IPsec gateway throughput vs packet size (40G port)");
  std::printf("%-8s | %10s %10s | %10s %10s | %8s | %10s\n", "size",
              "CPU-only", "paper", "DHL", "paper", "I/O", "ClickNP*");
  print_rule(86);

  CurvePoint cpu[6], dhl[6];
  double io[6];
  for (int i = 0; i < 6; ++i) {
    SingleNfOptions opt;
    opt.kind = NfKind::kIpsec;
    opt.frame_len = kPacketSizes[i];

    opt.mode = ExecMode::kDhl;
    dhl[i] = run_capacity_then_latency(opt);
    // Common offered load for the latency comparison: 85% of DHL capacity.
    const double common_load =
        kLatencyLoadFactor * dhl[i].throughput_gbps / opt.link.gbps();
    opt.mode = ExecMode::kCpuOnly;
    cpu[i] = run_capacity_then_latency(opt, common_load);
    opt.mode = ExecMode::kIoOnly;
    io[i] = run_single_nf(opt).throughput_gbps;  // capacity only

    std::printf("%-8u | %10.2f %10.2f | %10.2f %10.2f | %8.2f | %10.1f\n",
                kPacketSizes[i], cpu[i].throughput_gbps, paper_cpu_thr[i],
                dhl[i].throughput_gbps, paper_dhl_thr[i], io[i],
                clicknp_thr[i]);
  }
  std::printf("(* ClickNP series transcribed from the paper's figure)\n");

  print_title(
      "Figure 6(b): IPsec gateway processing latency vs packet size (median, "
      "common offered load)");
  std::printf("%-8s | %10s %10s | %10s %10s | %10s\n", "size", "CPU-only",
              "paper", "DHL", "paper", "ClickNP*");
  print_rule(70);
  for (int i = 0; i < 6; ++i) {
    std::printf("%-8u | %10.1f %10.1f | %10.2f %10.1f | %10.1f\n",
                kPacketSizes[i], cpu[i].latency_run.latency_p50_us, paper_cpu_lat[i],
                dhl[i].latency_run.latency_p50_us, paper_dhl_lat[i], clicknp_lat[i]);
  }
  std::printf(
      "\npaper shape: DHL < 10 us at every size (batch-fill wait makes 64 B\n"
      "slightly worse than 1500 B); CPU-only grows into tens of us with size;\n"
      "overall DHL gives ~7.7x throughput and ~1/19 latency at equal cores.\n");

  // Optional instrumented run: one DHL point with tracing + sampling on.
  const std::string telemetry_out = telemetry_out_arg(argc, argv);
  if (!telemetry_out.empty()) {
    SingleNfOptions opt;
    opt.kind = NfKind::kIpsec;
    opt.mode = ExecMode::kDhl;
    opt.frame_len = 1500;
    opt.offered = 0.8;
    opt.telemetry_out = telemetry_out;
    run_single_nf(opt);
  }
  return 0;
}
