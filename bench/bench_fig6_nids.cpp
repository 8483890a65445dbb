// Figure 6(c,d) reproduction: single NIDS on a 40G port -- throughput and
// processing latency vs packet size, CPU-only vs DHL vs raw I/O.
//
// The NIDS scans a Snort-style ruleset; pattern matching is offloaded to the
// pattern-matching AC-DFA module in the DHL version.  Its 32.40 Gbps module
// ceiling (Table VI) is what caps DHL-NIDS at large packets ("it is the
// pattern-matching module that limits the maximum throughput of NIDS to
// 31.1 Gbps", paper V-C).

#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace dhl;
  using namespace dhl::bench;

  // Paper values read off Fig 6(c)/(d).
  const double paper_dhl_thr[] = {18.3, 22.5, 27.0, 29.5, 30.5, 31.1};
  const double paper_cpu_thr[] = {2.2, 2.9, 4.0, 5.3, 6.8, 7.7};
  const double paper_dhl_lat[] = {9.5, 8.5, 7.5, 7.0, 6.5, 6.0};
  const double paper_cpu_lat[] = {25.0, 32.0, 45.0, 65.0, 100.0, 138.0};

  print_title("Figure 6(c): NIDS throughput vs packet size (40G port)");
  std::printf("%-8s | %10s %10s | %10s %10s | %8s\n", "size", "CPU-only",
              "paper", "DHL", "paper", "I/O");
  print_rule(70);

  CurvePoint cpu[6], dhl[6];
  double io[6];
  for (int i = 0; i < 6; ++i) {
    SingleNfOptions opt;
    opt.kind = NfKind::kNids;
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

    std::printf("%-8u | %10.2f %10.2f | %10.2f %10.2f | %8.2f\n",
                kPacketSizes[i], cpu[i].throughput_gbps, paper_cpu_thr[i],
                dhl[i].throughput_gbps, paper_dhl_thr[i],
                io[i]);
  }

  print_title(
      "Figure 6(d): NIDS processing latency vs packet size (median, at 90% "
      "load)");
  std::printf("%-8s | %10s %10s | %10s %10s\n", "size", "CPU-only", "paper",
              "DHL", "paper");
  print_rule(56);
  for (int i = 0; i < 6; ++i) {
    std::printf("%-8u | %10.1f %10.1f | %10.2f %10.1f\n", kPacketSizes[i],
                cpu[i].latency_run.latency_p50_us, paper_cpu_lat[i],
                dhl[i].latency_run.latency_p50_us, paper_dhl_lat[i]);
  }
  std::printf(
      "\npaper shape: DHL-NIDS saturates near the 32 Gbps module ceiling at\n"
      "large packets; CPU-only stays below 8 Gbps; DHL latency < 10 us, i.e.\n"
      "~8.3x throughput and ~1/36 latency at 1500 B.\n");

  // Optional instrumented run: one DHL point with tracing + sampling on.
  const std::string telemetry_out = telemetry_out_arg(argc, argv);
  if (!telemetry_out.empty()) {
    SingleNfOptions opt;
    opt.kind = NfKind::kNids;
    opt.mode = ExecMode::kDhl;
    opt.frame_len = 1500;
    opt.offered = 0.8;
    opt.telemetry_out = telemetry_out;
    run_single_nf(opt);
  }
  return 0;
}
