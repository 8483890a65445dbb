// Unit tests for the FPGA device model: PR regions, ICAP timing, dispatch.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "dhl/accel/ipsec_crypto.hpp"
#include "dhl/accel/pattern_matching.hpp"
#include "dhl/common/simd.hpp"
#include "dhl/fpga/device.hpp"
#include "dhl/fpga/loopback.hpp"
#include "dhl/match/aho_corasick.hpp"
#include "dhl/netio/headers.hpp"
#include "dhl/netio/mempool.hpp"
#include "dhl/netio/pktgen.hpp"
#include "dhl/nf/nids.hpp"

namespace dhl::fpga {
namespace {

FpgaDeviceConfig small_config() {
  FpgaDeviceConfig cfg;
  cfg.num_pr_regions = 3;
  return cfg;
}

/// Records how the device drives its module: the length of every
/// process_batch() run and the number of stage_timings() reads.  Each
/// result word is the record's first data byte, so results show order.
struct CallLog {
  std::vector<std::size_t> runs;
  int stage_reads = 0;
};

class CountingModule final : public AcceleratorModule {
 public:
  explicit CountingModule(std::shared_ptr<CallLog> log)
      : log_{std::move(log)} {}

  const std::string& name() const override {
    static const std::string kName = "counting";
    return kName;
  }
  ModuleResources resources() const override { return {1'000, 4}; }
  ModuleTiming timing() const override { return {Bandwidth::gbps(100), 4}; }
  std::vector<ModuleTiming> stage_timings() const override {
    ++log_->stage_reads;
    return {timing()};
  }
  void configure(std::span<const std::uint8_t>) override {}
  ProcessResult process(std::span<std::uint8_t> data) override {
    return {data[0], static_cast<std::uint32_t>(data.size())};
  }
  void process_batch(std::span<const std::span<std::uint8_t>> datas,
                     std::span<ProcessResult> out) override {
    log_->runs.push_back(datas.size());
    AcceleratorModule::process_batch(datas, out);
  }

 private:
  std::shared_ptr<CallLog> log_;
};

PartialBitstream counting_bitstream(std::shared_ptr<CallLog> log) {
  PartialBitstream b;
  b.hf_name = "counting";
  b.size_bytes = 1'000'000;
  b.resources = {1'000, 4};
  b.factory = [log] { return std::make_unique<CountingModule>(log); };
  return b;
}

/// Runs one batch through `dev` and returns it as the RX DMA delivers it.
DmaBatchPtr round_trip(sim::Simulator& sim, FpgaDevice& dev,
                       DmaBatchPtr batch) {
  DmaBatchPtr returned;
  dev.dma().set_rx_deliver([&](DmaBatchPtr b) { returned = std::move(b); });
  dev.dma().submit_tx(std::move(batch));
  sim.run();
  dev.dma().set_rx_deliver(nullptr);  // the hook refers to `returned`
  return returned;
}

TEST(FpgaDevice, LoadModuleProgramsThroughIcap) {
  sim::Simulator sim;
  FpgaDevice dev{sim, small_config()};
  bool ready = false;
  const auto bitstream = loopback_bitstream();
  const auto region = dev.load_module(bitstream, [&](int) { ready = true; });
  ASSERT_TRUE(region.has_value());
  EXPECT_EQ(dev.region_state(*region), RegionState::kReconfiguring);

  const Picos expected = dev.reconfiguration_time(bitstream);
  sim.run_until(expected - nanoseconds(1));
  EXPECT_FALSE(ready);
  sim.run_until(expected + nanoseconds(1));
  EXPECT_TRUE(ready);
  EXPECT_EQ(dev.region_state(*region), RegionState::kReady);
  EXPECT_EQ(dev.region_of("loopback"), region);
}

TEST(FpgaDevice, ReconfigurationTimeMatchesTableV) {
  sim::Simulator sim;
  FpgaDevice dev{sim, small_config()};
  // Table V: 5.6 MB ipsec-crypto -> 23 ms at the calibrated ICAP bandwidth.
  const Picos t = dev.reconfiguration_time(accel::ipsec_crypto_bitstream());
  EXPECT_NEAR(to_milliseconds(t), 23.0, 1.0);
}

TEST(FpgaDevice, IcapSerializesConcurrentLoads) {
  sim::Simulator sim;
  FpgaDevice dev{sim, small_config()};
  Picos first_done = 0, second_done = 0;
  const auto bs = loopback_bitstream();
  dev.load_module(bs, [&](int) { first_done = sim.now(); });
  dev.load_module(bs, [&](int) { second_done = sim.now(); });
  sim.run();
  EXPECT_GT(first_done, 0u);
  EXPECT_GE(second_done, first_done + dev.reconfiguration_time(bs));
}

TEST(FpgaDevice, PlacementRespectsResourceBudgets) {
  sim::Simulator sim;
  FpgaDeviceConfig cfg = small_config();
  cfg.region_capacity = {5'000, 100};  // too small for ipsec-crypto (9464 LUTs)
  FpgaDevice dev{sim, cfg};
  EXPECT_FALSE(dev.load_module(accel::ipsec_crypto_bitstream(), nullptr)
                   .has_value());
}

TEST(FpgaDevice, DeviceTotalsGateLoads) {
  sim::Simulator sim;
  FpgaDeviceConfig cfg = small_config();
  cfg.num_pr_regions = 8;
  // Paper VI-F: about 2 pattern-matching modules fit (BRAM-bound: 83 static
  // + 2x524 = 1131 of 1470; a third would need 1655).
  FpgaDevice dev{sim, cfg};
  auto automaton = std::make_shared<const match::AhoCorasick>(
      match::AhoCorasick::build(std::vector<std::string>{"x"}));
  const auto bs = accel::pattern_matching_bitstream(automaton);
  EXPECT_TRUE(dev.load_module(bs, nullptr).has_value());
  EXPECT_TRUE(dev.load_module(bs, nullptr).has_value());
  EXPECT_FALSE(dev.load_module(bs, nullptr).has_value());
  EXPECT_GT(dev.bram_utilization(), 0.7);
}

TEST(FpgaDevice, FiveIpsecModulesFitTableVI) {
  sim::Simulator sim;
  FpgaDeviceConfig cfg;
  cfg.num_pr_regions = 7;
  FpgaDevice dev{sim, cfg};
  // Paper VI-F: "there are enough resource to place 5 ipsec-crypto".
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(dev.load_module(accel::ipsec_crypto_bitstream(), nullptr)
                    .has_value())
        << i;
  }
  EXPECT_FALSE(
      dev.load_module(accel::ipsec_crypto_bitstream(), nullptr).has_value());
}

TEST(FpgaDevice, UnloadFreesRegionAndResources) {
  sim::Simulator sim;
  FpgaDevice dev{sim, small_config()};
  const auto region = dev.load_module(loopback_bitstream(), nullptr);
  ASSERT_TRUE(region.has_value());
  sim.run();
  const auto used_with = dev.used_resources();
  dev.unload_region(*region);
  EXPECT_EQ(dev.region_state(*region), RegionState::kEmpty);
  EXPECT_LT(dev.used_resources().luts, used_with.luts);
  // The region can be reused.
  EXPECT_TRUE(dev.load_module(accel::ipsec_crypto_bitstream(), nullptr)
                  .has_value());
}

TEST(FpgaDevice, DispatchRoutesToModuleAndReturnsBatch) {
  sim::Simulator sim;
  FpgaDevice dev{sim, small_config()};
  const auto region = dev.load_module(loopback_bitstream(), nullptr);
  ASSERT_TRUE(region.has_value());
  sim.run();
  dev.map_acc(7, *region);

  auto batch = std::make_unique<DmaBatch>(7);
  batch->append(1, std::vector<std::uint8_t>(100, 0xcd), nullptr);

  DmaBatchPtr returned;
  dev.dma().set_rx_deliver([&](DmaBatchPtr b) { returned = std::move(b); });
  dev.dma().submit_tx(std::move(batch));
  sim.run();
  ASSERT_NE(returned, nullptr);
  const auto views = returned->parse();
  ASSERT_EQ(views.size(), 1u);
  EXPECT_EQ(views[0].header.flags, 0);
  EXPECT_EQ(returned->buffer()[views[0].data_offset], 0xcd);
  EXPECT_EQ(dev.region_records(*region), 1u);
  EXPECT_EQ(dev.region_bytes(*region), 100u);
}

TEST(FpgaDevice, UnmappedAccIdFlagsRecord) {
  sim::Simulator sim;
  FpgaDevice dev{sim, small_config()};
  auto batch = std::make_unique<DmaBatch>(9);  // nothing mapped at 9
  batch->append(0, std::vector<std::uint8_t>(10, 0), nullptr);
  DmaBatchPtr returned;
  dev.dma().set_rx_deliver([&](DmaBatchPtr b) { returned = std::move(b); });
  dev.dma().submit_tx(std::move(batch));
  sim.run();
  ASSERT_NE(returned, nullptr);
  EXPECT_EQ(returned->parse()[0].header.flags & 0x1, 0x1);
  EXPECT_EQ(dev.dispatch_drops(), 1u);
}

TEST(FpgaDevice, ModuleThroughputCapDelaysCompletion) {
  sim::Simulator sim;
  FpgaDevice dev{sim, small_config()};
  const auto region = dev.load_module(accel::ipsec_crypto_bitstream(), nullptr);
  ASSERT_TRUE(region.has_value());
  sim.run();
  accel::SecurityAssociation sa;  // zero keys are fine for timing
  dev.region_module(*region)->configure(accel::ipsec_module_config(false, sa));
  dev.map_acc(1, *region);

  // Two 6 KB batches of ESP frames: the second must finish one module
  // occupancy later than the first.
  auto make = [&] {
    auto b = std::make_unique<DmaBatch>(1);
    for (int i = 0; i < 4; ++i) {
      std::vector<std::uint8_t> frame(1500, 0);
      b->append(0, frame, nullptr);
    }
    return b;
  };
  std::vector<Picos> done;
  dev.dma().set_rx_deliver([&](DmaBatchPtr) { done.push_back(sim.now()); });
  dev.dma().submit_tx(make());
  dev.dma().submit_tx(make());
  sim.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_GT(done[1], done[0]);
}

TEST(FpgaDevice, PrDoesNotDisturbRunningRegion) {
  sim::Simulator sim;
  FpgaDevice dev{sim, small_config()};
  const auto r0 = dev.load_module(loopback_bitstream(), nullptr);
  ASSERT_TRUE(r0.has_value());
  sim.run();
  dev.map_acc(0, *r0);

  // Stream batches through region 0 while region 1 reconfigures; every batch
  // must come back unflagged, at the same cadence.
  std::uint64_t returned = 0;
  dev.dma().set_rx_deliver([&](DmaBatchPtr b) {
    for (const auto& v : b->parse()) EXPECT_EQ(v.header.flags, 0);
    ++returned;
  });
  for (int i = 0; i < 50; ++i) {
    auto b = std::make_unique<DmaBatch>(0);
    b->append(0, std::vector<std::uint8_t>(1000, 1), nullptr);
    dev.dma().submit_tx(std::move(b));
  }
  dev.load_module(accel::ipsec_crypto_bitstream(), nullptr);  // concurrent PR
  sim.run();
  EXPECT_EQ(returned, 50u);
  EXPECT_EQ(dev.dispatch_drops(), 0u);
}

TEST(FpgaDevice, DispatchHandsEachRunToItsModuleInOneCall) {
  sim::Simulator sim;
  FpgaDevice dev{sim, small_config()};
  auto log = std::make_shared<CallLog>();
  const auto region = dev.load_module(counting_bitstream(log), nullptr);
  ASSERT_TRUE(region.has_value());
  sim.run();
  dev.map_acc(7, *region);

  auto batch = std::make_unique<DmaBatch>(7);
  for (std::uint8_t r = 1; r <= 5; ++r) {
    batch->append(1, std::vector<std::uint8_t>(100u + r, r), nullptr);
  }
  const DmaBatchPtr returned = round_trip(sim, dev, std::move(batch));
  ASSERT_NE(returned, nullptr);

  // A Packer-built batch is one run: one module call, one timing read.
  EXPECT_EQ(log->runs, std::vector<std::size_t>{5});
  EXPECT_EQ(log->stage_reads, 1);
  const auto views = returned->parse();
  ASSERT_EQ(views.size(), 5u);
  for (std::size_t i = 0; i < views.size(); ++i) {
    EXPECT_EQ(views[i].header.result, i + 1) << "record " << i;
    EXPECT_EQ(views[i].header.flags, 0);
  }
  EXPECT_EQ(dev.region_records(*region), 5u);
  EXPECT_EQ(dev.dispatch_drops(), 0u);
}

TEST(FpgaDevice, UnmappedRunIsFlaggedWhileOtherRunsAreProcessed) {
  sim::Simulator sim;
  FpgaDevice dev{sim, small_config()};
  auto log = std::make_shared<CallLog>();
  const auto region = dev.load_module(counting_bitstream(log), nullptr);
  ASSERT_TRUE(region.has_value());
  sim.run();
  dev.map_acc(7, *region);

  auto batch = std::make_unique<DmaBatch>(7);
  for (std::uint8_t r = 1; r <= 5; ++r) {
    batch->append(1, std::vector<std::uint8_t>(64, r), nullptr);
  }
  // Records 2 and 3 become a run bound for acc_id 9, which nothing maps:
  // rewrite their header acc_id byte (it follows nf_id) in the wire bytes.
  const auto staged = batch->parse();
  for (const std::size_t i : {2u, 3u}) {
    batch->buffer()[staged[i].header_offset + 1] = 9;
  }
  const DmaBatchPtr returned = round_trip(sim, dev, std::move(batch));
  ASSERT_NE(returned, nullptr);

  // Three runs (7, 9, 7): the two mapped ones reach the module, each in one
  // call; the unmapped one never does.
  EXPECT_EQ(log->runs, (std::vector<std::size_t>{2, 1}));
  EXPECT_EQ(log->stage_reads, 2);
  const auto views = returned->parse();
  ASSERT_EQ(views.size(), 5u);
  for (std::size_t i = 0; i < views.size(); ++i) {
    const bool unmapped = i == 2 || i == 3;
    EXPECT_EQ((views[i].header.flags & kRecordFlagError) != 0, unmapped)
        << "record " << i;
    EXPECT_EQ(views[i].header.result, unmapped ? 0u : i + 1) << "record " << i;
  }
  EXPECT_EQ(dev.dispatch_drops(), 2u);
  EXPECT_EQ(dev.region_records(*region), 3u);
}

TEST(FpgaDevice, PatternMatchingBatchMatchesReferenceScanAtEveryTier) {
  namespace simd = common::simd;
  struct CapGuard {
    simd::Isa prev = simd::cap();
    ~CapGuard() { simd::set_cap(prev); }
  } guard;

  const auto rules = std::make_shared<match::RuleSet>(
      match::RuleSet::builtin_snort_sample());
  const auto automaton = nf::NidsProcessor::build_automaton(*rules);
  // More records than AhoCorasick::kLanes, so a lane is refilled mid-batch.
  netio::TrafficConfig cfg;
  cfg.frame_len = 600;
  cfg.payload = netio::PayloadKind::kTextAttacks;
  cfg.attack_probability = 0.6;
  cfg.attack_strings = {"/etc/passwd", "cmd.exe", "union select"};
  cfg.seed = 5;
  netio::FrameFactory factory{cfg};
  netio::MbufPool pool{"pm", 1, 4096, 0};
  std::vector<std::vector<std::uint8_t>> frames;
  for (std::size_t i = 0; i < match::AhoCorasick::kLanes + 1; ++i) {
    netio::Mbuf* m = pool.alloc();
    factory.build(*m);
    frames.emplace_back(m->payload().begin(), m->payload().end());
    m->release();
  }

  // Reference: AhoCorasick::find_all over each L4 payload, folded into the
  // result word (bitmap of patterns < 48 | distinct count << 48).
  std::vector<std::uint64_t> want;
  for (const auto& f : frames) {
    const netio::PacketView view = netio::parse_packet(f);
    ASSERT_TRUE(view.valid);
    std::vector<match::PatternMatch> hits;
    automaton->find_all(std::span{f}.subspan(view.payload_offset), hits);
    std::set<std::uint32_t> distinct;
    std::uint64_t bitmap = 0;
    for (const auto& h : hits) {
      distinct.insert(h.pattern);
      if (h.pattern < 48) bitmap |= 1ULL << h.pattern;
    }
    want.push_back(bitmap | (static_cast<std::uint64_t>(std::min<std::size_t>(
                                 distinct.size(), 0xffff))
                             << 48));
  }
  ASSERT_GT(std::count_if(want.begin(), want.end(),
                          [](std::uint64_t w) { return w != 0; }),
            1);

  for (int t = 0; t <= static_cast<int>(simd::kMaxIsa); ++t) {
    const auto isa = static_cast<simd::Isa>(t);
    if (!simd::host_supports(isa)) continue;
    simd::set_cap(isa);
    sim::Simulator sim;
    FpgaDevice dev{sim, small_config()};
    const auto region =
        dev.load_module(accel::pattern_matching_bitstream(automaton), nullptr);
    ASSERT_TRUE(region.has_value());
    sim.run();
    dev.map_acc(3, *region);

    auto batch = std::make_unique<DmaBatch>(3);
    for (const auto& f : frames) batch->append(0, f, nullptr);
    const DmaBatchPtr returned = round_trip(sim, dev, std::move(batch));
    ASSERT_NE(returned, nullptr);
    const auto views = returned->parse();
    ASSERT_EQ(views.size(), frames.size());
    for (std::size_t i = 0; i < views.size(); ++i) {
      EXPECT_EQ(views[i].header.result, want[i])
          << "record " << i << " isa=" << simd::to_string(isa);
      EXPECT_EQ(views[i].header.flags, kRecordFlagDataUnmodified);
    }
  }
}

}  // namespace
}  // namespace dhl::fpga
