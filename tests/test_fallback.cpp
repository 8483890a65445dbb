// Software-fallback parity tests (DESIGN.md section 3.3): when every
// replica of a hardware function is quarantined, packets flow through the
// per-(nf, hf) callback registered via DHL_register_fallback -- and the
// results must be byte-identical to what the accelerator path produces.
//
// The parity check runs each workload twice: once against the (healthy)
// accelerator, once with the device fault-injected into permanent
// quarantine and the module's software implementation registered as the
// fallback.  Result words and payload bytes must match packet for packet.

#include <gtest/gtest.h>

#include <map>
#include <string_view>
#include <utility>
#include <vector>

#include "dhl/accel/catalog.hpp"
#include "dhl/accel/extra_modules.hpp"
#include "dhl/accel/pattern_matching.hpp"
#include "dhl/fpga/fault_hook.hpp"
#include "dhl/match/aho_corasick.hpp"
#include "dhl/netio/mempool.hpp"
#include "dhl/runtime/api.hpp"
#include "dhl/runtime/fault.hpp"
#include "dhl/runtime/runtime.hpp"

namespace dhl::runtime {
namespace {

using fpga::FaultKind;
using fpga::FaultSite;
using fpga::FpgaDevice;
using netio::Mbuf;
using netio::MbufPool;

struct Harness {
  sim::Simulator sim;
  std::vector<std::unique_ptr<FpgaDevice>> fpgas;
  std::unique_ptr<DhlRuntime> rt;
  MbufPool pool{"test", 8192, 2048, 0};

  explicit Harness(fpga::BitstreamDatabase db, RuntimeConfig cfg = {}) {
    fpga::FpgaDeviceConfig fc;
    fpgas.push_back(std::make_unique<FpgaDevice>(sim, fc));
    rt = std::make_unique<DhlRuntime>(
        sim, cfg, std::move(db),
        std::vector<FpgaDevice*>{fpgas.back().get()});
  }

  ~Harness() {
    if (kLedgerCompiled && rt != nullptr) {
      const LedgerAudit audit = rt->ledger().audit();
      EXPECT_TRUE(audit.clean()) << audit.to_string();
    }
  }

  Mbuf* make_pkt(netio::NfId nf, netio::AccId acc,
                 const std::vector<std::uint8_t>& payload) {
    Mbuf* m = pool.alloc();
    m->assign(payload);
    m->set_nf_id(nf);
    m->set_acc_id(acc);
    m->set_rx_timestamp(sim.now() == 0 ? 1 : sim.now());
    return m;
  }

  double metric(std::string_view name, const telemetry::Labels& labels = {}) {
    return rt->telemetry().metrics.snapshot().sum(name, labels);
  }
};

/// Deterministic per-packet payload; the leading byte is unique per index
/// (31 is odd, so i*31 mod 256 never collides for i < 256) and both
/// modules under test leave payload bytes unmodified, so it keys results.
std::vector<std::uint8_t> payload_for(int i, std::size_t len) {
  std::vector<std::uint8_t> p(len);
  for (std::size_t j = 0; j < len; ++j) {
    p[j] = static_cast<std::uint8_t>((i * 31 + static_cast<int>(j) * 7) & 0xff);
  }
  return p;
}

/// Run `n` packets through `hf_name` and return {leading byte -> result}.
/// With `quarantine` set, a permanent fpga.device fault pulls every replica
/// from dispatch and `fallback` (the module's software twin) serves them.
std::map<std::uint8_t, std::uint64_t> run_workload(
    fpga::BitstreamDatabase db, const std::string& hf_name, int n,
    bool quarantine, fpga::AcceleratorModule* fallback,
    std::uint64_t* fallback_pkts_out = nullptr,
    std::size_t make_payload_len = 80) {
  Harness h{std::move(db)};
  const netio::NfId nf = h.rt->register_nf("nf0", 0);
  const AccHandle a = h.rt->search_by_name(hf_name, 0);
  h.sim.run_until(h.sim.now() + milliseconds(30));
  EXPECT_TRUE(h.rt->acc_ready(a));
  h.rt->start();

  FaultInjector inj{h.sim, h.rt->telemetry(), /*seed=*/1234};
  if (quarantine) {
    h.rt->set_fault_injector(&inj);
    // Every dispatch attempt re-quarantines (probation re-admits are shot
    // down too): the hardware path stays unreachable for the whole run.
    inj.add_rule({.site = FaultSite::kDevice,
                  .kind = FaultKind::kDeviceUnhealthy});
  }
  if (fallback != nullptr) {
    DHL_register_fallback(*h.rt, nf, hf_name, [fallback](Mbuf& m) {
      const fpga::ProcessResult r =
          fallback->process({m.data(), m.data_len()});
      m.set_accel_result(r.result);
    });
  }

  std::map<std::uint8_t, std::uint64_t> results;
  for (int i = 0; i < n; ++i) {
    Mbuf* m = h.make_pkt(nf, a.acc_id, payload_for(i, make_payload_len));
    EXPECT_EQ(h.rt->send_packets(nf, &m, 1), 1u);
    h.sim.run_until(h.sim.now() + microseconds(50));
  }
  h.sim.run_until(h.sim.now() + milliseconds(2));

  Mbuf* out[64];
  std::size_t got;
  while ((got = DhlRuntime::receive_packets(h.rt->get_private_obq(nf), out,
                                            64)) > 0) {
    for (std::size_t i = 0; i < got; ++i) {
      // Payload must come back unmodified on both paths.
      results[out[i]->data()[0]] = out[i]->accel_result();
      EXPECT_EQ(out[i]->data_len(), make_payload_len);
      out[i]->release();
    }
  }
  if (fallback_pkts_out != nullptr) {
    *fallback_pkts_out =
        static_cast<std::uint64_t>(h.metric("dhl.fallback.pkts"));
  }
  EXPECT_EQ(h.rt->in_flight(), 0u);
  EXPECT_EQ(h.pool.in_use(), 0u);
  return results;
}

TEST(Fallback, Md5ResultsMatchAcceleratorPath) {
  constexpr int kPkts = 16;
  const auto accel_path =
      run_workload(accel::standard_module_database(nullptr), "md5-auth",
                   kPkts, /*quarantine=*/false, nullptr);
  ASSERT_EQ(accel_path.size(), static_cast<std::size_t>(kPkts));

  accel::Md5Module soft;
  std::uint64_t fallback_pkts = 0;
  const auto fallback_path =
      run_workload(accel::standard_module_database(nullptr), "md5-auth",
                   kPkts, /*quarantine=*/true, &soft, &fallback_pkts);

  // Every packet was delivered -- through the software rung -- and each
  // result word is identical to the accelerator's.
  ASSERT_EQ(fallback_path.size(), static_cast<std::size_t>(kPkts));
  EXPECT_EQ(fallback_pkts, static_cast<std::uint64_t>(kPkts));
  EXPECT_EQ(fallback_path, accel_path);
}

TEST(Fallback, PatternMatchingResultsMatchAcceleratorPath) {
  constexpr int kPkts = 16;
  const std::vector<std::string> patterns{"attack", "evil", "\x42\x49"};
  auto automaton = std::make_shared<const match::AhoCorasick>(
      match::AhoCorasick::build(patterns));

  const auto accel_path = run_workload(
      accel::standard_module_database(automaton), "pattern-matching", kPkts,
      /*quarantine=*/false, nullptr);
  ASSERT_EQ(accel_path.size(), static_cast<std::size_t>(kPkts));
  // The workload is not degenerate: at least one packet matched something.
  bool any_match = false;
  for (const auto& [k, v] : accel_path) {
    any_match |= accel::pattern_result_count(v) > 0;
  }
  EXPECT_TRUE(any_match);

  accel::PatternMatchingModule soft{automaton};
  std::uint64_t fallback_pkts = 0;
  const auto fallback_path = run_workload(
      accel::standard_module_database(automaton), "pattern-matching", kPkts,
      /*quarantine=*/true, &soft, &fallback_pkts);

  ASSERT_EQ(fallback_path.size(), static_cast<std::size_t>(kPkts));
  EXPECT_EQ(fallback_pkts, static_cast<std::uint64_t>(kPkts));
  EXPECT_EQ(fallback_path, accel_path);
}

// Without a registered fallback, a fully quarantined function drops
// (counted) instead of delivering -- the fallback really is the mechanism
// that kept the packets flowing above.
TEST(Fallback, NoCallbackMeansCountedDrops) {
  constexpr int kPkts = 8;
  std::uint64_t fallback_pkts = 0;
  const auto results =
      run_workload(accel::standard_module_database(nullptr), "md5-auth",
                   kPkts, /*quarantine=*/true, nullptr, &fallback_pkts);
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(fallback_pkts, 0u);
}

/// What refused OBQ deliveries leave behind.
struct ObqOverflow {
  /// (component, NF id) of every flight-recorder "obq" drop event.
  std::vector<std::pair<int, int>> events;
  double runtime_obq_drops = 0;  // dhl.runtime.obq_drops
  double nf_obq_drops = 0;       // dhl.nf.obq_drops{nf=nf0}
  double obq_depth = 0;          // dhl.nf.obq_depth{nf=nf0}
  double tenant_dropped = 0;     // dhl.tenant.dropped_pkts
  std::size_t obq_count = 0;     // packets waiting in the OBQ
};

/// Offer 40 md5-auth packets to an NF whose 16-slot OBQ nobody drains,
/// delivered by the Distributor or, with `quarantine`, by the software
/// fallback.
ObqOverflow overflow_obq(bool quarantine) {
  RuntimeConfig cfg;
  cfg.obq_size = 16;
  Harness h{accel::standard_module_database(nullptr), cfg};
  const netio::NfId nf = h.rt->register_nf("nf0", 0);
  const AccHandle a = h.rt->search_by_name("md5-auth", 0);
  h.sim.run_until(h.sim.now() + milliseconds(30));
  EXPECT_TRUE(h.rt->acc_ready(a));
  h.rt->start();
  FaultInjector inj{h.sim, h.rt->telemetry(), /*seed=*/1234};
  if (quarantine) {
    h.rt->set_fault_injector(&inj);
    inj.add_rule({.site = FaultSite::kDevice,
                  .kind = FaultKind::kDeviceUnhealthy});
  }
  DHL_register_fallback(*h.rt, nf, "md5-auth", [](Mbuf&) {});

  std::vector<Mbuf*> pkts;
  for (int i = 0; i < 40; ++i) {
    pkts.push_back(h.make_pkt(nf, a.acc_id, payload_for(i, 80)));
  }
  EXPECT_EQ(h.rt->send_packets(nf, pkts.data(), pkts.size()), pkts.size());
  h.sim.run_until(h.sim.now() + milliseconds(2));

  ObqOverflow r;
  for (const telemetry::FlightEvent& e : h.rt->telemetry().recorder.recent()) {
    if (e.kind == telemetry::FlightEventKind::kDrop &&
        std::string_view{e.tag} == "obq") {
      r.events.emplace_back(static_cast<int>(e.comp), e.a);
    }
  }
  r.runtime_obq_drops = h.metric("dhl.runtime.obq_drops");
  r.nf_obq_drops = h.metric("dhl.nf.obq_drops", {{"nf", "nf0"}});
  r.obq_depth = h.metric("dhl.nf.obq_depth", {{"nf", "nf0"}});
  r.tenant_dropped = h.metric("dhl.tenant.dropped_pkts");
  EXPECT_EQ(h.metric("dhl.fallback.pkts"), quarantine ? 40 : 0);
  Mbuf* out[64];
  r.obq_count =
      DhlRuntime::receive_packets(h.rt->get_private_obq(nf), out, 64);
  for (std::size_t i = 0; i < r.obq_count; ++i) out[i]->release();
  EXPECT_EQ(h.pool.in_use(), 0u);
  return r;
}

// A fallback-served packet refused by a full OBQ is the same obq drop as a
// Distributor-delivered one: same flight event, counters and depth gauge.
TEST(Fallback, FullObqDropMatchesTheDistributorPath) {
  const ObqOverflow hw = overflow_obq(/*quarantine=*/false);
  const ObqOverflow sw = overflow_obq(/*quarantine=*/true);
  ASSERT_GT(hw.runtime_obq_drops, 0);
  EXPECT_EQ(hw.events.size(), static_cast<std::size_t>(hw.runtime_obq_drops));
  EXPECT_EQ(hw.nf_obq_drops, hw.runtime_obq_drops);
  EXPECT_EQ(hw.tenant_dropped, hw.runtime_obq_drops);
  EXPECT_EQ(hw.obq_depth, static_cast<double>(hw.obq_count));

  EXPECT_EQ(sw.events, hw.events);
  EXPECT_EQ(sw.runtime_obq_drops, hw.runtime_obq_drops);
  EXPECT_EQ(sw.nf_obq_drops, hw.nf_obq_drops);
  EXPECT_EQ(sw.tenant_dropped, hw.tenant_dropped);
  EXPECT_EQ(sw.obq_depth, hw.obq_depth);
  EXPECT_EQ(sw.obq_count, hw.obq_count);
}

}  // namespace
}  // namespace dhl::runtime
