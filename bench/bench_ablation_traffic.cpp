// Ablation: traffic profile sensitivity (ours, beyond the paper).
//
// The paper's generator offers constant-rate traffic; real NFV traffic is
// bursty.  Same mean load, different arrival process:
//   * smooth CBR at 50% of DHL capacity;
//   * ON/OFF bursts (line rate inside the ON window) with growing periods.
// Bursts stress the 6 KB batching and the DMA queue: median latency stays
// put, the tail grows with the burst length.  Adaptive batching (VI-2)
// recovers part of the tail.

#include <cstdio>

#include "bench_common.hpp"

namespace dhl::bench {
namespace {

struct TrafficPoint {
  double p50_us;
  double p99_us;
  double gbps;
};

/// 50% of the DHL capacity (~38 Gbps) as the mean load.
constexpr double kMeanLoad = 0.475;

/// ON/OFF arrivals: the link runs at line rate for kMeanLoad of each
/// `period` and is silent for the rest (same mean load as CBR).
Picos on_off_gap(Picos period, Picos now, Picos line_gap) {
  const Picos on_window =
      static_cast<Picos>(static_cast<double>(period) * kMeanLoad);
  Picos t = now + line_gap;
  if (t % period >= on_window) t = (t / period + 1) * period;  // next period
  return t - now;
}

TrafficPoint run_profile(Picos burst_period, bool adaptive) {
  nf::TestbedConfig tb_cfg;
  tb_cfg.runtime.timing.runtime.adaptive_batching = adaptive;
  nf::Testbed tb{tb_cfg};
  auto* port = tb.add_port("p0", Bandwidth::gbps(40));
  auto& rt = tb.init_runtime();
  const auto sa = nf::test_security_association();
  auto proc = std::make_shared<nf::IpsecProcessor>(sa, nf::IpsecPolicy{});

  nf::DhlNfConfig cfg;
  cfg.name = "ipsec";
  cfg.timing = tb.timing();
  cfg.hf_name = "ipsec-crypto";
  cfg.acc_config = accel::ipsec_module_config(false, sa);
  nf::DhlOffloadNf app{tb.sim(),
                       cfg,
                       {port},
                       rt,
                       [proc](netio::Mbuf& m) { return proc->dhl_prep(m); },
                       nf::ipsec_dhl_prep_cost(tb.timing()),
                       [proc](netio::Mbuf& m) { return proc->dhl_post(m); },
                       nf::ipsec_dhl_post_cost(tb.timing())};
  tb.run_for(milliseconds(30));
  rt.start();
  app.start();

  netio::TrafficConfig traffic;
  traffic.frame_len = 512;
  if (burst_period > 0) {
    traffic.gap_model = [burst_period](Picos now, Picos line_gap) {
      return on_off_gap(burst_period, now, line_gap);
    };
  }
  port->start_traffic(traffic, kMeanLoad);
  tb.measure(milliseconds(3), milliseconds(6));
  return {to_microseconds(port->latency().percentile(0.5)),
          to_microseconds(port->latency().percentile(0.99)),
          nf::forwarded_wire_gbps(*port, 512, milliseconds(6))};
}

}  // namespace
}  // namespace dhl::bench

int main() {
  using namespace dhl;
  using namespace dhl::bench;

  print_title(
      "Traffic-profile ablation: DHL IPsec, 512 B, 50% mean load (19 Gbps)");
  std::printf("%-22s | %10s | %12s %12s | %12s %12s\n", "profile",
              "carried", "p50 (us)", "p99 (us)", "p50 adapt.", "p99 adapt.");
  print_rule(92);

  struct Profile {
    const char* name;
    Picos period;
  } profiles[] = {
      {"smooth CBR", 0},
      {"bursts, 20 us period", microseconds(20)},
      {"bursts, 100 us period", microseconds(100)},
      {"bursts, 500 us period", microseconds(500)},
  };
  for (const auto& p : profiles) {
    const TrafficPoint fixed = run_profile(p.period, false);
    const TrafficPoint adaptive = run_profile(p.period, true);
    std::printf("%-22s | %8.2f G | %12.2f %12.2f | %12.2f %12.2f\n", p.name,
                fixed.gbps, fixed.p50_us, fixed.p99_us, adaptive.p50_us,
                adaptive.p99_us);
  }
  std::printf(
      "\nexpected: identical carried load; tail latency grows with burst\n"
      "length (line-rate ON windows overrun the DMA budget and queue).\n");
  return 0;
}
