// Repository benchmark program: runs one DHL offload workload through the
// real testbed stack and prints its metrics (see perfbench/README.md).
//
//   dhl_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// A run repeats trials on fresh testbeds until --seconds of wall time have
// passed.  Every trial of one seed simulates the same virtual run, so the
// virtual metrics must repeat bit for bit (checked); host metrics are the
// medians over the trials, each scaled by a reference kernel timed inside
// the trial.  --trace 0 prints the end-to-end metrics; --trace 1 interleaves
// untraced and traced fixed-rate trials and prints the per-layer metrics.
// The last stdout line is one JSON object.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "dhl/runtime/runtime.hpp"
#include "dhl/telemetry/stage_stats.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using dhl::Picos;
using dhl::telemetry::Stage;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU time this thread has run, in ns.  Unlike wall time it leaves out
/// the time the scheduler gives to other processes.
double thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

std::uint64_t g_reference_sink = 0;

/// Thread CPU ns of one pass of a fixed integer kernel (eight independent
/// multiply-xorshift lanes, register-only) that shares no code or data with
/// the program under test.
double reference_cpu_ns() {
  const double t0 = thread_cpu_ns();
  std::uint64_t lane[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  for (std::uint64_t i = 0; i < 40000; ++i) {
    for (std::uint64_t& x : lane) x = (x ^ (x >> 7)) * 0x9E3779B97F4A7C15ull + i;
  }
  for (std::uint64_t x : lane) g_reference_sink += x;
  return thread_cpu_ns() - t0;
}

/// The reference kernel's uncontended time on the machine the benchmark was
/// built on (a 2.1 GHz Xeon VM).  A trial's host time is scaled by this over
/// the trial's own mean reference time, so host metrics read as ns on that
/// machine at its uncontended speed.  Co-tenants on a shared host slow the
/// core in level shifts of up to 1.6x that last from a fraction of a second
/// to whole runs; they slow the kernel about as much as the program, so the
/// ratio holds still where raw times do not.
constexpr double kReferenceNs = 130000;

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Registry counters the benchmark reads (each summed over its labels),
/// plus the NF shells' own drop counts.
struct Counters {
  std::map<std::string, double> sum;
  NfDrops nf;

  double operator[](const std::string& name) const { return sum.at(name); }

  /// Every runtime drop site that can destroy a packet.
  double runtime_drops() const {
    return (*this)["dhl.runtime.obq_drops"] +
           (*this)["dhl.runtime.unready_drops"] +
           (*this)["dhl.runtime.oversize_drops"] +
           (*this)["dhl.runtime.submit_drop_pkts"] +
           (*this)["dhl.batch.crc_drop_pkts"];
  }

  static Counters read(Rig& rig) {
    static const char* const kNames[] = {
        "dhl.nic.rx_pkts", "dhl.nic.rx_drops", "dhl.nic.tx_pkts",
        "dhl.runtime.pkts_to_fpga", "dhl.runtime.batches_to_fpga",
        "dhl.runtime.flush_full_batches", "dhl.runtime.flush_timeout_batches",
        "dhl.copy_bytes", "dhl.zero_copy_bytes", "dhl.pool.hits",
        "dhl.pool.misses", "dhl.fpga.dispatch_records",
        "dhl.tenant.admitted_pkts", "dhl.tenant.rejected_pkts",
        "dhl.runtime.obq_drops", "dhl.runtime.unready_drops",
        "dhl.runtime.oversize_drops", "dhl.runtime.submit_drop_pkts",
        "dhl.batch.crc_drop_pkts"};
    const auto snap = rig.testbed().telemetry().metrics.snapshot();
    Counters c;
    for (const char* name : kNames) c.sum[name] = snap.sum(name);
    c.nf = rig.nf_drops();
    return c;
  }

  Counters operator-(const Counters& base) const {
    Counters d = *this;
    for (auto& [name, v] : d.sum) v -= base[name];
    d.nf.ibq_refusals -= base.nf.ibq_refusals;
    d.nf.verdict -= base.nf.verdict;
    return d;
  }
};

/// Everything a trial measures.  The `virt` fields are virtual-time results
/// that must repeat exactly between trials of one seed.
struct Trial {
  bool traced = false;
  double setup_s = 0;
  double wall_ns = 0;  ///< measured window, wall clock
  /// Thread CPU ns of the window's simulation, without the reference passes
  /// run between its slices.
  double cpu_ns = 0;
  double ref_ns = 0;  ///< mean reference_cpu_ns() over the window
  std::uint64_t pkts = 0;  ///< packets transmitted in the window
  std::string failure;

  /// The reference-scaled factor that turns this trial's host ns into ns at
  /// the reference machine's uncontended speed.
  double scale() const { return kReferenceNs / ref_ns; }
  /// Reference-scaled host CPU ns per delivered packet.
  double host_ns_per_pkt() const {
    return cpu_ns / static_cast<double>(pkts) * scale();
  }

  struct Virtual {
    std::uint64_t delivered = 0;  ///< frames out of the NICs in the window
    std::uint64_t events = 0;     ///< simulator events in the window
    double input_wire_bytes = 0;
    std::uint64_t lat_samples = 0;
    Picos lat_p50 = 0, lat_p99 = 0, lat_p999 = 0;
    std::array<double, static_cast<std::size_t>(Stage::kCount)> stage_mean{};
    double tx_busy = 0, tx_idle = 0;
    std::uint64_t arrived_total = 0, delivered_total = 0;  ///< after drain
    bool operator==(const Virtual&) const = default;
  } virt;

  Counters window;  ///< counter deltas over the window
  Picos window_len = 0;

  // Traced trials only.
  std::array<LayerStats, kLayerCount> layers{};
  /// Each layer's self ns inside the slices; `sim` is the slices' time
  /// minus every other layer's.
  std::array<double, kLayerCount> layer_ns{};
  double ns_per_tick = 1;
  std::uint64_t packer_polls = 0, packer_useful = 0;
  std::uint64_t dist_polls = 0, dist_useful = 0;
};

constexpr Picos kDrain = dhl::milliseconds(2);

Trial run_trial(const std::string& workload, std::uint64_t seed, bool capacity,
                bool traced) {
  Trial t;
  t.traced = traced;
  const auto t0 = Clock::now();
  Rig rig{{.workload = workload, .seed = seed, .capacity = capacity,
           .traced = traced}};
  t.setup_s = seconds_since(t0);

  auto& tb = rig.testbed();
  auto& sim = tb.sim();
  auto& rt = rig.runtime();
  auto& tel = tb.telemetry();
  const std::vector<dhl::sim::Lcore*> cores = rt.transfer_cores();
  if (traced) {
    // Same Packer/Distributor calls the runtime installs, inside spans.
    for (std::size_t i = 0; i < cores.size(); ++i) {
      const int socket = static_cast<int>(i / 2);
      if (i % 2 == 0) {
        cores[i]->set_poll([&rt, &t, socket](dhl::sim::Lcore&) {
          Span span{kPacker};
          const dhl::sim::PollResult r = rt.packer().poll(socket);
          ++t.packer_polls;
          if (r.cycles > 0) ++t.packer_useful;
          return r;
        });
      } else {
        cores[i]->set_poll([&rt, &t, socket](dhl::sim::Lcore&) {
          Span span{kDistributor};
          const dhl::sim::PollResult r = rt.distributor().poll(socket);
          ++t.dist_polls;
          if (r.cycles > 0) ++t.dist_useful;
          return r;
        });
      }
    }
  }

  rig.start_traffic();
  tb.run_for(rig.warmup());

  // --- measured window ---
  rig.begin_window();
  tel.stages.reset();
  for (dhl::sim::Lcore* c : cores) c->reset_accounting();
  t.packer_polls = t.packer_useful = t.dist_polls = t.dist_useful = 0;
  const Counters c0 = Counters::read(rig);
  const std::uint64_t ev0 = sim.executed();
  t.window_len = rig.window();
  if (traced) {
    tracer().reset();
    tracer().set_on(true);
  }
  // Step the simulator so every transmission is seen at its own event.
  // Sentinel events split the window into kChunks equal virtual slices;
  // after the last, run_until() runs the remaining events stamped exactly
  // at the window's end, as a plain run would.  Before each slice one
  // reference pass is timed, so the reference samples the same host
  // conditions as the slices; only the slices count as the program's time.
  constexpr int kChunks = 100;
  const Picos window_start = sim.now();
  const Picos window_end = window_start + t.window_len;
  int reached = 0;
  for (int k = 1; k <= kChunks; ++k) {
    sim.schedule_at(window_start + t.window_len / kChunks * k,
                    [&reached] { ++reached; });
  }
  std::uint64_t slice_ticks = 0;
  const auto w0 = Clock::now();
  {
    Span span{kSim};
    for (int k = 1; k <= kChunks; ++k) {
      t.ref_ns += reference_cpu_ns() / kChunks;
      const double cpu0 = thread_cpu_ns();
      const std::uint64_t ticks0 = Tracer::ticks();
      while (reached < k && sim.step()) rig.observe_tx();
      if (k == kChunks) {
        sim.run_until(window_end);
        rig.observe_tx();
      }
      slice_ticks += Tracer::ticks() - ticks0;
      t.cpu_ns += thread_cpu_ns() - cpu0;
    }
  }
  t.wall_ns = seconds_since(w0) * 1e9;
  t.pkts = rig.tx_latencies().size();
  tracer().set_on(false);
  if (traced) {
    // Every span other than sim's opens inside a slice.  The open sim span
    // is credited only when it closes, and its total also holds the
    // reference passes, so sim's slice time is the residual.
    t.ns_per_tick = Tracer::ns_per_tick();
    double others = 0;
    for (int l = 0; l < kLayerCount; ++l) {
      t.layers[l] = tracer().stats(static_cast<Layer>(l));
      if (l == kSim) continue;
      t.layer_ns[l] = static_cast<double>(t.layers[l].self_ticks) * t.ns_per_tick;
      others += t.layer_ns[l];
    }
    t.layer_ns[kSim] = static_cast<double>(slice_ticks) * t.ns_per_tick - others;
  }

  Trial::Virtual& v = t.virt;
  v.events = sim.executed() - ev0;
  t.window = Counters::read(rig) - c0;
  dhl::sim::LatencyHistogram lat;
  for (dhl::netio::NicPort* port : rig.ports()) {
    v.delivered += port->tx_meter().frames();
    v.input_wire_bytes += rig.delivered_input_wire_bytes(*port);
    lat.merge(port->latency());
  }
  std::vector<Picos> exact = rig.tx_latencies();
  std::sort(exact.begin(), exact.end());
  auto pct = [&exact](double q) {
    // Nearest rank, as the NIC histogram ranks its samples.
    const auto n = static_cast<double>(exact.size());
    const auto rank = static_cast<std::size_t>(std::max(1.0, std::ceil(q * n)));
    return exact.empty() ? Picos{0} : exact[std::min(rank, exact.size()) - 1];
  };
  v.lat_samples = exact.size();
  v.lat_p50 = pct(0.50);
  v.lat_p99 = pct(0.99);
  v.lat_p999 = pct(0.999);
  // The program's own log-binned histogram must agree: same sample count,
  // and each exact percentile inside the bin the histogram reports.
  bool agree = lat.count() == exact.size();
  for (double q : {0.50, 0.99, 0.999}) {
    const double hist = static_cast<double>(lat.percentile(q));
    const double mine = static_cast<double>(pct(q));
    agree = agree && mine <= hist && hist <= mine * 1.025 + 1;
  }
  if (!agree) {
    t.failure = "exact latencies (" + std::to_string(exact.size()) +
                " samples) disagree with the NIC latency histogram (" +
                std::to_string(lat.count()) + " samples)";
  }
  for (std::size_t s = 0; s < v.stage_mean.size(); ++s) {
    v.stage_mean[s] = tel.stages.stage(static_cast<Stage>(s)).mean();
  }
  if (!cores.empty()) {
    v.tx_busy = cores[0]->busy_cycles();
    v.tx_idle = cores[0]->idle_cycles();
  }

  // --- drain, then account for every offered frame ---
  rig.stop_traffic();
  tb.run_for(kDrain);
  const Counters end = Counters::read(rig);
  const std::uint64_t in_flight = rig.in_flight();
  v.arrived_total = static_cast<std::uint64_t>(end["dhl.nic.rx_pkts"]);
  v.delivered_total = static_cast<std::uint64_t>(end["dhl.nic.tx_pkts"]);
  const double arrived = end["dhl.nic.rx_pkts"];
  const double delivered = end["dhl.nic.tx_pkts"];
  const double accounted = delivered + end["dhl.nic.rx_drops"] +
                           static_cast<double>(end.nf.ibq_refusals) +
                           static_cast<double>(end.nf.verdict) +
                           end.runtime_drops() + static_cast<double>(in_flight);
  if (accounted != arrived) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "conservation: NIC rx %.0f != delivered %.0f + drops %.0f + "
                  "in flight %llu",
                  arrived, delivered,
                  accounted - delivered - static_cast<double>(in_flight),
                  static_cast<unsigned long long>(in_flight));
    if (t.failure.empty()) t.failure = buf;
  }
  if (t.failure.empty()) t.failure = rig.verify();
  return t;
}

// --- output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics,
                  const std::vector<std::string>& failures) {
  for (const Metric& m : metrics) {
    std::printf("%-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& f : failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    line += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            json_number(m.value) + ", \"unit\": \"" + m.unit +
            "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double us(Picos p) { return dhl::to_microseconds(p); }
double stage_us(const Trial& t, Stage s) {
  return t.virt.stage_mean[static_cast<std::size_t>(s)] / 1e6;  // ps -> us
}

/// Collect failures: per-trial checks plus virtual repeatability.
void check_trials(const std::vector<Trial>& trials,
                  std::vector<std::string>& failures) {
  for (const Trial& t : trials) {
    if (!t.failure.empty()) failures.push_back(t.failure);
  }
  for (const Trial& t : trials) {
    if (!(t.virt == trials.front().virt)) {
      failures.push_back(std::string(t.traced ? "traced" : "untraced") +
                         " trial did not reproduce the virtual run of the "
                         "first trial");
      break;
    }
  }
}

/// Median over `trials` of a per-trial value.
template <typename Fn>
double median_of(const std::vector<Trial>& trials, Fn fn) {
  std::vector<double> v;
  for (const Trial& t : trials) v.push_back(fn(t));
  return median(v);
}

/// Host cost of a phase: the median over its trials of the
/// reference-scaled CPU ns per delivered packet (see kReferenceNs).
double host_ns_per_pkt(const std::vector<Trial>& trials) {
  return median_of(trials, [](const Trial& t) { return t.host_ns_per_pkt(); });
}

int run_end_to_end(const std::string& workload, std::uint64_t seed,
                   double seconds) {
  const auto start = Clock::now();
  std::vector<Trial> cap, fixed;
  do {
    cap.push_back(run_trial(workload, seed, true, false));
    fixed.push_back(run_trial(workload, seed, false, false));
  } while (seconds_since(start) < seconds);

  std::vector<std::string> failures;
  check_trials(cap, failures);
  check_trials(fixed, failures);

  std::vector<double> setup;
  for (const Trial& t : cap) setup.push_back(t.setup_s);
  for (const Trial& t : fixed) setup.push_back(t.setup_s);
  const Trial& c = cap.front();
  const Trial& f = fixed.front();
  const double capacity_gbps =
      c.virt.input_wire_bytes * 8.0 / dhl::to_seconds(c.window_len) / 1e9;

  std::printf("workload %s seed %llu: %zu trial pairs in %.1f s; latency from "
              "%llu samples\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              cap.size(), seconds_since(start),
              static_cast<unsigned long long>(f.virt.lat_samples));
  const std::vector<Metric> metrics{
      {"setup_s", median(setup), "s"},
      {"host_ns_per_pkt", host_ns_per_pkt(fixed), "ns"},
      {"host_ns_per_pkt_sat", host_ns_per_pkt(cap), "ns"},
      {"capacity_gbps", capacity_gbps, "Gbps"},
      {"latency_p50_us", us(f.virt.lat_p50), "us"},
      {"latency_p99_us", us(f.virt.lat_p99), "us"},
      {"latency_p999_us", us(f.virt.lat_p999), "us"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  const std::uint64_t failed =
      f.virt.arrived_total - std::min(f.virt.arrived_total, f.virt.delivered_total);
  print_result(failures.empty(), f.virt.arrived_total, failed, metrics,
               failures);
  return 0;
}

int run_traced(const std::string& workload, std::uint64_t seed,
               double seconds) {
  const auto start = Clock::now();
  // Capacity-phase counters (virtual; one trial suffices).
  const Trial cap = run_trial(workload, seed, true, false);
  std::vector<Trial> plain, traced;
  std::size_t rep = 0;
  do {
    // Alternate which side runs first so drift cancels.
    if (rep++ % 2 == 0) {
      plain.push_back(run_trial(workload, seed, false, false));
      traced.push_back(run_trial(workload, seed, false, true));
    } else {
      traced.push_back(run_trial(workload, seed, false, true));
      plain.push_back(run_trial(workload, seed, false, false));
    }
  } while (seconds_since(start) < seconds);

  std::vector<std::string> failures;
  if (!cap.failure.empty()) failures.push_back(cap.failure);
  std::vector<Trial> all = plain;
  all.insert(all.end(), traced.begin(), traced.end());
  check_trials(all, failures);

  const Trial& f = traced.front();
  const double pkts = static_cast<double>(f.virt.delivered);
  // Per-layer host time: each layer's self time in the slices, scaled by
  // the trial's reference like host_ns_per_pkt, as a median over the traced
  // trials.
  auto per_pkt = [&](Layer l) {
    return median_of(traced, [l](const Trial& t) {
      return t.layer_ns[l] / static_cast<double>(t.pkts) * t.scale();
    });
  };
  auto per_call = [&](Layer l) {
    return median_of(traced, [l](const Trial& t) {
      return ratio(t.layer_ns[l], static_cast<double>(t.layers[l].calls)) *
             t.scale();
    });
  };
  auto self_ns = [](const Trial& t, Layer l) {
    return static_cast<double>(t.layers[l].self_ticks) * t.ns_per_tick;
  };
  auto allocs = [&](std::initializer_list<Layer> ls) {
    double n = 0;
    for (Layer l : ls) n += static_cast<double>(f.layers[l].allocs);
    return n / pkts;
  };
  std::vector<double> self_sums;
  for (const Trial& t : traced) {
    double sum = 0;
    for (int l = 0; l < kLayerCount; ++l) sum += self_ns(t, static_cast<Layer>(l));
    self_sums.push_back(sum / t.wall_ns);
  }
  const double self_sum_ratio = median(self_sums);
  const Counters& w = f.window;
  const double e2e = stage_us(f, Stage::kEndToEnd);
  const double stage_sum =
      stage_us(f, Stage::kIbqWait) + stage_us(f, Stage::kPack) +
      stage_us(f, Stage::kDmaTx) + stage_us(f, Stage::kFpga) +
      stage_us(f, Stage::kDmaRx) + stage_us(f, Stage::kDistributor);
  // Tolerances: per-layer self times must cover the traced wall time to
  // within 5% (the remainder is span bookkeeping and clock reads).  The
  // stage means may not miss any of the end-to-end mean (1% slack), and may
  // overshoot it by up to 20%: the pack seam charges every packet in a
  // batch from the batch's first enqueue, so the sum exceeds the mean by
  // the intra-batch fill spread (none when a whole burst packs at once).
  if (self_sum_ratio < 0.95 || self_sum_ratio > 1.05) {
    failures.push_back("per-layer self times sum to " +
                       json_number(self_sum_ratio) + " of the traced wall");
  }
  if (e2e <= 0 || stage_sum / e2e < 0.99 || stage_sum / e2e > 1.20) {
    failures.push_back("stage means sum to " + json_number(stage_sum) +
                       " us against an end-to-end mean of " + json_number(e2e));
  }

  const Counters& cw = cap.window;
  auto rejected_ratio = [](const Counters& c) {
    return ratio(c["dhl.tenant.rejected_pkts"],
                 c["dhl.tenant.admitted_pkts"] + c["dhl.tenant.rejected_pkts"]);
  };
  std::vector<Metric> m{
      {"sim.events_per_pkt", static_cast<double>(f.virt.events) / pkts, "events/pkt"},
      {"sim.self_ns_per_pkt", per_pkt(kSim), "ns"},
      {"dhl.packer.ns_per_pkt", per_pkt(kPacker), "ns"},
      {"dhl.distributor.ns_per_pkt", per_pkt(kDistributor), "ns"},
      {"dhl.packer.useful_poll_ratio",
       ratio(static_cast<double>(f.packer_useful), static_cast<double>(f.packer_polls)),
       "ratio"},
      {"dhl.distributor.useful_poll_ratio",
       ratio(static_cast<double>(f.dist_useful), static_cast<double>(f.dist_polls)),
       "ratio"},
      {"dhl.copied_bytes_ratio",
       ratio(w["dhl.copy_bytes"], w["dhl.copy_bytes"] + w["dhl.zero_copy_bytes"]), "ratio"},
      {"dhl.pool_hit_rate", ratio(w["dhl.pool.hits"], w["dhl.pool.hits"] + w["dhl.pool.misses"]), "ratio"},
      {"dhl.pkts_per_batch", ratio(w["dhl.runtime.pkts_to_fpga"], w["dhl.runtime.batches_to_fpga"]), "pkts/batch"},
      {"dhl.timeout_flush_ratio",
       ratio(w["dhl.runtime.flush_timeout_batches"],
             w["dhl.runtime.flush_full_batches"] +
                 w["dhl.runtime.flush_timeout_batches"]), "ratio"},
      {"dhl.tx_core_util", ratio(f.virt.tx_busy, f.virt.tx_busy + f.virt.tx_idle),
       "ratio"},
      {"dhl.ibq_wait_us", stage_us(f, Stage::kIbqWait), "us"},
      {"dhl.pack_wait_us", stage_us(f, Stage::kPack), "us"},
      {"dhl.distributor_wait_us", stage_us(f, Stage::kDistributor), "us"},
      {"dhl.e2e_mean_us", e2e, "us"},
      {"dhl.tenant_rejected_ratio",
       rejected_ratio(w), "ratio"},
      {"dhl.tenant_rejected_ratio_sat",
       rejected_ratio(cw), "ratio"},
      {"fpga.dma_tx_us", stage_us(f, Stage::kDmaTx), "us"},
      {"fpga.module_us", stage_us(f, Stage::kFpga), "us"},
      {"fpga.dma_rx_us", stage_us(f, Stage::kDmaRx), "us"},
      {"fpga.dispatch_records", w["dhl.fpga.dispatch_records"], "count"},
  };
  for (Layer l : {kAccelIpsec, kAccelPattern, kAccelMd5, kAccelAes}) {
    const std::string stem = layer_name(l);
    m.push_back({stem + ".ns_per_call", per_call(l), "ns"});
    m.push_back({stem + ".calls", static_cast<double>(f.layers[l].calls), "count"});
  }
  const std::vector<Metric> tail{
      {"netio.rx_drop_ratio", ratio(w["dhl.nic.rx_drops"], w["dhl.nic.rx_pkts"]), "ratio"},
      {"netio.rx_drop_ratio_sat", ratio(cw["dhl.nic.rx_drops"], cw["dhl.nic.rx_pkts"]), "ratio"},
      {"netio.latency_samples", static_cast<double>(f.virt.lat_samples), "count"},
      {"nf.prep.ns_per_pkt", per_pkt(kPrep), "ns"},
      {"nf.post.ns_per_pkt", per_pkt(kPost), "ns"},
      {"nf.ibq_refusals", static_cast<double>(w.nf.ibq_refusals), "count"},
      {"alloc.sim.per_pkt", allocs({kSim}), "allocs/pkt"},
      {"alloc.dhl.per_pkt", allocs({kPacker, kDistributor}), "allocs/pkt"},
      {"alloc.accel.per_pkt",
       allocs({kAccelIpsec, kAccelPattern, kAccelMd5, kAccelAes, kAccelOther}),
       "allocs/pkt"},
      {"alloc.nf.per_pkt", allocs({kPrep, kPost}), "allocs/pkt"},
      {"loss_ratio",
       ratio(static_cast<double>(f.virt.arrived_total - f.virt.delivered_total),
             static_cast<double>(f.virt.arrived_total)),
       "ratio"},
      {"trace.overhead_ratio",
       ratio(host_ns_per_pkt(traced), host_ns_per_pkt(plain)), "ratio"},
      {"trace.self_sum_ratio", self_sum_ratio, "ratio"},
      {"trace.stage_sum_ratio", ratio(stage_sum, e2e), "ratio"},
  };
  m.insert(m.end(), tail.begin(), tail.end());

  std::printf("workload %s seed %llu: %zu untraced + %zu traced fixed-rate "
              "trials in %.1f s\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              plain.size(), traced.size(), seconds_since(start));
  const std::uint64_t failed =
      f.virt.arrived_total - std::min(f.virt.arrived_total, f.virt.delivered_total);
  print_result(failures.empty(), f.virt.arrived_total, failed, m, failures);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: dhl_perfbench --workload <ipsec-64|nids-1500|"
               "shared-chain-imix> --seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return usage();
    args[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 != 1 || !args.count("workload") || !args.count("seed") ||
      !args.count("seconds") || !args.count("trace")) {
    return usage();
  }
  const std::string workload = args["workload"];
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), workload) == names.end()) {
    return usage();
  }
  const std::uint64_t seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  const double seconds = std::strtod(args["seconds"].c_str(), nullptr);
  const std::string trace = args["trace"];
  if (trace != "0" && trace != "1") return usage();
  return trace == "1" ? run_traced(workload, seed, seconds)
                      : run_end_to_end(workload, seed, seconds);
}
