// Zero-copy batch path: SG append through the runtime, the Distributor's
// unmodified-flag write-back skip, pooled batch recycling, and results
// matching the accelerator module run directly.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>

#include "dhl/accel/catalog.hpp"
#include "dhl/accel/pattern_matching.hpp"
#include "dhl/match/aho_corasick.hpp"
#include "dhl/netio/mempool.hpp"
#include "dhl/runtime/api.hpp"
#include "dhl/runtime/runtime.hpp"

namespace dhl::runtime {
namespace {

using fpga::FpgaDevice;
using netio::Mbuf;
using netio::MbufPool;

std::shared_ptr<const match::AhoCorasick> test_automaton() {
  const std::vector<std::string> patterns{"attack", "overflow"};
  return std::make_shared<const match::AhoCorasick>(
      match::AhoCorasick::build(patterns));
}

struct Harness {
  sim::Simulator sim;
  telemetry::TelemetryPtr tel = telemetry::make_telemetry();
  fpga::FpgaDeviceConfig fpga_cfg;
  std::unique_ptr<FpgaDevice> fpga;
  std::unique_ptr<DhlRuntime> rt;
  MbufPool pool{"test", 8192, 2048, 0};

  explicit Harness(RuntimeConfig cfg = {}) {
    fpga_cfg.telemetry = tel;
    cfg.telemetry = tel;
    fpga = std::make_unique<FpgaDevice>(sim, fpga_cfg);
    rt = std::make_unique<DhlRuntime>(
        sim, cfg, accel::standard_module_database(test_automaton()),
        std::vector<FpgaDevice*>{fpga.get()});
  }

  void wait_ready(const AccHandle& h) {
    sim.run_until(sim.now() + milliseconds(40));
    ASSERT_TRUE(rt->acc_ready(h));
  }

  Mbuf* make_pkt(netio::NfId nf, netio::AccId acc,
                 const std::vector<std::uint8_t>& data) {
    Mbuf* m = pool.alloc();
    m->assign(data);
    m->set_nf_id(nf);
    m->set_acc_id(acc);
    m->set_rx_timestamp(sim.now() == 0 ? 1 : sim.now());
    return m;
  }

  std::uint64_t counter(const std::string& name) const {
    const auto snap = tel->metrics.snapshot(sim.now());
    const auto* s = snap.find(name);
    return s != nullptr ? static_cast<std::uint64_t>(s->value) : 0;
  }

  std::uint64_t pools_misses() {
    std::uint64_t total = 0;
    for (int s = 0; s < rt->batch_pools().num_sockets(); ++s) {
      total += rt->batch_pools().pool(s).misses();
    }
    return total;
  }
};

std::vector<std::uint8_t> text_payload(const std::string& text,
                                       std::size_t len) {
  std::vector<std::uint8_t> data(len, '.');
  std::memcpy(data.data(), text.data(), std::min(text.size(), len));
  return data;
}

/// Round-trip `pkts` through `hf_name` and return the drained mbufs.
std::vector<Mbuf*> round_trip(Harness& h, const std::string& hf_name,
                              std::vector<Mbuf*> pkts) {
  const netio::NfId nf = h.rt->register_nf("nf0", 0);
  const AccHandle handle = h.rt->search_by_name(hf_name, 0);
  EXPECT_TRUE(handle.valid());
  h.wait_ready(handle);
  for (Mbuf* m : pkts) m->set_acc_id(handle.acc_id);
  h.rt->start();

  EXPECT_EQ(h.rt->send_packets(nf, pkts.data(), pkts.size()), pkts.size());
  h.sim.run_until(h.sim.now() + milliseconds(5));

  std::vector<Mbuf*> out(pkts.size() + 8, nullptr);
  const std::size_t n = DhlRuntime::receive_packets(
      h.rt->get_private_obq(nf), out.data(), out.size());
  out.resize(n);
  h.rt->stop();
  return out;
}

TEST(ZeroCopy, UnmodifiedFlagSkipsWriteBackButKeepsResult) {
  Harness h;
  const auto payload = text_payload("launch the attack now", 256);
  std::vector<Mbuf*> pkts;
  for (int i = 0; i < 32; ++i) pkts.push_back(h.make_pkt(0, 0, payload));

  const auto out = round_trip(h, "pattern-matching", pkts);
  ASSERT_EQ(out.size(), 32u);
  for (Mbuf* m : out) {
    // Payload untouched (it never left the mbuf on the RX side)...
    ASSERT_EQ(m->data_len(), payload.size());
    EXPECT_EQ(std::memcmp(m->payload().data(), payload.data(),
                          payload.size()),
              0);
    // ...while the module result still lands via set_accel_result.
    EXPECT_EQ(accel::pattern_result_count(m->accel_result()), 1u);
    EXPECT_NE(accel::pattern_result_bitmap(m->accel_result()), 0u);
    m->release();
  }
  // The proof of the skip: nothing on the host path copied payload bytes.
  // replace_data() is only ever reached through the copy_bytes branch.
  EXPECT_EQ(h.counter("dhl.copy_bytes"), 0u);
  EXPECT_GT(h.counter("dhl.zero_copy_bytes"), 0u);
  EXPECT_EQ(h.rt->in_flight(), 0u);
}

TEST(ZeroCopy, MutatingModuleStillPaysTheCopy) {
  Harness h;
  // Highly compressible payload: LZ77 shrinks it, so the device cannot set
  // the unmodified flag and the Distributor must write back.
  const std::vector<std::uint8_t> payload(512, 0x41);
  std::vector<Mbuf*> pkts;
  for (int i = 0; i < 8; ++i) pkts.push_back(h.make_pkt(0, 0, payload));

  const auto out = round_trip(h, "compression", pkts);
  ASSERT_EQ(out.size(), 8u);
  for (Mbuf* m : out) {
    EXPECT_LT(m->data_len(), payload.size());  // shrunk in flight
    EXPECT_EQ(m->accel_result(), payload.size());
    m->release();
  }
  // RX write-back happened for every record.
  EXPECT_GE(h.counter("dhl.copy_bytes"), 8u);
}

TEST(ZeroCopy, PatternMatchingResultsMatchTheModule) {
  // Every delivered packet carries exactly what the accelerator module
  // computes on a private copy of its input: the same result word, and the
  // payload bytes it was sent with.
  Harness h;
  accel::PatternMatchingModule reference{test_automaton()};
  const std::vector<std::string> texts{"buffer overflow attack",
                                       "nothing to see here", "attack",
                                       "overflow, then overflow again"};
  struct Expected {
    std::vector<std::uint8_t> payload;
    std::uint64_t result;
  };
  std::map<const Mbuf*, Expected> expected;
  std::set<std::uint64_t> distinct_results;
  std::vector<Mbuf*> pkts;
  for (std::size_t i = 0; i < 16; ++i) {
    const auto payload = text_payload(texts[i % texts.size()], 64 + 24 * i);
    std::vector<std::uint8_t> copy = payload;
    pkts.push_back(h.make_pkt(0, 0, payload));
    expected[pkts.back()] = {payload, reference.process(copy).result};
    distinct_results.insert(expected[pkts.back()].result);
  }
  // The texts hit no pattern, one, and both: a result mix-up shows.
  ASSERT_GE(distinct_results.size(), 3u);
  const auto out = round_trip(h, "pattern-matching", pkts);
  ASSERT_EQ(out.size(), pkts.size());
  for (Mbuf* m : out) {
    const auto it = expected.find(m);
    ASSERT_NE(it, expected.end()) << "unknown or duplicate delivery";
    EXPECT_EQ(m->accel_result(), it->second.result);
    ASSERT_EQ(m->data_len(), it->second.payload.size());
    EXPECT_EQ(std::memcmp(m->payload().data(), it->second.payload.data(),
                          m->data_len()),
              0);
    expected.erase(it);
    m->release();
  }
  // SG append on TX and the write-back skip on RX: no payload byte copied.
  EXPECT_EQ(h.counter("dhl.copy_bytes"), 0u);
}

TEST(ZeroCopy, PoolReachesSteadyStateHits) {
  Harness h;
  const netio::NfId nf = h.rt->register_nf("nf0", 0);
  const AccHandle handle = h.rt->search_by_name("loopback", 0);
  h.wait_ready(handle);
  h.rt->start();
  auto& obq = h.rt->get_private_obq(nf);

  const auto payload = text_payload("x", 128);
  std::uint64_t misses_after_warmup = 0;
  for (int round = 0; round < 20; ++round) {
    std::vector<Mbuf*> pkts;
    for (int i = 0; i < 64; ++i)
      pkts.push_back(h.make_pkt(nf, handle.acc_id, payload));
    ASSERT_EQ(h.rt->send_packets(nf, pkts.data(), pkts.size()), pkts.size());
    h.sim.run_until(h.sim.now() + milliseconds(1));
    std::vector<Mbuf*> out(128, nullptr);
    const std::size_t n =
        DhlRuntime::receive_packets(obq, out.data(), out.size());
    ASSERT_EQ(n, pkts.size());
    for (std::size_t i = 0; i < n; ++i) out[i]->release();
    if (round == 4) {
      misses_after_warmup = h.pools_misses();
    }
  }
  // Zero per-batch allocations in steady state: every post-warmup round
  // was served entirely from the pool.
  EXPECT_EQ(h.pools_misses(), misses_after_warmup);
  EXPECT_GT(h.rt->batch_pools().pool(0).hits(), 0u);
  EXPECT_EQ(h.rt->in_flight(), 0u);
  h.rt->stop();
}

}  // namespace
}  // namespace dhl::runtime
