// Fabric-level service chaining (DESIGN.md section 3.7): ChainModule unit
// behaviour, DHL_compose_chain validation, fused-vs-per-stage bit parity,
// live reconfiguration under a running chain, tenant quota policing of
// chain traffic, a compression -> aes256-ctr chain behind a record-resizing
// CPU stage whose outputs the host inverts independently of the modules,
// and the engine's bad-port and stale-handle fixes under every core layout
// and NF shape.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "dhl/accel/extra_modules.hpp"
#include "dhl/accel/lz77.hpp"
#include "dhl/common/rng.hpp"
#include "dhl/crypto/aes.hpp"
#include "dhl/fpga/chain_module.hpp"
#include "dhl/netio/mempool.hpp"
#include "dhl/netio/pktgen.hpp"
#include "dhl/nf/chain.hpp"
#include "dhl/nf/dhl_nf.hpp"
#include "dhl/nf/nids.hpp"
#include "dhl/nf/testbed.hpp"

namespace dhl::nf {
namespace {

std::vector<std::uint8_t> compressible_text(std::size_t n) {
  static const std::string phrase =
      "the quick brown fox jumps over the lazy dog -- ";
  std::vector<std::uint8_t> out;
  while (out.size() < n) {
    const std::size_t take = std::min(phrase.size(), n - out.size());
    out.insert(out.end(), phrase.begin(), phrase.begin() + take);
  }
  return out;
}

/// A compressible record: `seq` as a host-order u32, then words drawn from
/// a small vocabulary by a generator seeded with `seq`.  The same generator
/// draws the length from [160, 1200), which never equals `avoid_len`.
std::vector<std::uint8_t> vocabulary_record(std::uint32_t seq,
                                            std::size_t avoid_len) {
  static constexpr std::string_view kWords[] = {
      "alpha ", "bravo ", "charlie ", "delta ",
      "echo ",  "foxtrot ", "golf ", "hotel "};
  Xoshiro256 rng{seq};
  std::size_t len = 160 + rng.bounded(1200 - 160);
  if (len == avoid_len) ++len;
  std::vector<std::uint8_t> out(sizeof seq);
  std::memcpy(out.data(), &seq, sizeof seq);
  while (out.size() < len) {
    const std::string_view w = kWords[rng.bounded(std::size(kWords))];
    const std::size_t take = std::min(w.size(), len - out.size());
    out.insert(out.end(), w.begin(), w.begin() + take);
  }
  return out;
}

fpga::ChainModule make_compncrypt_chain(
    std::size_t result_stage = fpga::ChainModule::kResultFromLast) {
  std::vector<fpga::ChainStageSlot> slots;
  slots.push_back({std::make_unique<accel::CompressionModule>(), nullptr,
                   nullptr});
  auto aes = std::make_unique<accel::Aes256CtrModule>();
  aes->configure(accel::aes256_ctr_test_config());
  slots.push_back({std::move(aes), nullptr, nullptr});
  return fpga::ChainModule{"compression+aes256-ctr", std::move(slots),
                           result_stage};
}

// --- ChainModule unit behaviour ---------------------------------------------

TEST(ChainModuleUnit, MatchesSequentialStageExecution) {
  fpga::ChainModule chain = make_compncrypt_chain();
  std::vector<std::uint8_t> fused_buf = compressible_text(800);
  const fpga::ProcessResult fused = chain.process(fused_buf);

  // Reference: the same two modules run back to back by hand.
  std::vector<std::uint8_t> ref_buf = compressible_text(800);
  accel::CompressionModule lz;
  const fpga::ProcessResult r1 = lz.process(ref_buf);
  ASSERT_LT(r1.new_len, 800u);  // text must actually compress
  accel::Aes256CtrModule aes;
  aes.configure(accel::aes256_ctr_test_config());
  const fpga::ProcessResult r2 =
      aes.process(std::span<std::uint8_t>{ref_buf}.first(r1.new_len));

  EXPECT_EQ(fused.new_len, r2.new_len);
  EXPECT_EQ(fused.result, r2.result);  // result word from the LAST stage
  EXPECT_FALSE(fused.data_unmodified);
  ASSERT_EQ(fused.new_len, r1.new_len);
  EXPECT_EQ(0, std::memcmp(fused_buf.data(), ref_buf.data(), fused.new_len));
}

TEST(ChainModuleUnit, ResultStageSelectsIntermediateResultWord) {
  // result_stage = 0 surfaces the compression stage's result (the original
  // length) instead of the aes status word.
  fpga::ChainModule chain = make_compncrypt_chain(0);
  std::vector<std::uint8_t> buf = compressible_text(640);
  const fpga::ProcessResult r = chain.process(buf);
  EXPECT_EQ(r.result, 640u);
}

TEST(ChainModuleUnit, TimingAggregatesAndStageTimingsFlatten) {
  fpga::ChainModule chain = make_compncrypt_chain();
  // Bottleneck bandwidth is the slowest stage; latency is the sum.
  const fpga::ModuleTiming t = chain.timing();
  EXPECT_EQ(t.max_throughput.bps(), Bandwidth::gbps(24.0).bps());
  EXPECT_EQ(t.delay_cycles, 180u + 96u);
  const fpga::ModuleResources res = chain.resources();
  EXPECT_EQ(res.luts, 11'800u + 7'900u);
  EXPECT_EQ(res.brams, 96u + 210u);

  const auto stages = chain.stage_timings();
  ASSERT_EQ(stages.size(), 2u);
  EXPECT_EQ(stages[0].max_throughput.bps(), Bandwidth::gbps(24.0).bps());
  EXPECT_EQ(stages[0].delay_cycles, 180u);
  EXPECT_EQ(stages[1].max_throughput.bps(), Bandwidth::gbps(70.0).bps());
  EXPECT_EQ(stages[1].delay_cycles, 96u);

  // A chain nested inside a chain flattens to one stage list.
  std::vector<fpga::ChainStageSlot> outer;
  outer.push_back({std::make_unique<fpga::ChainModule>(
                       make_compncrypt_chain()),
                   nullptr, nullptr});
  outer.push_back({std::make_unique<accel::Md5Module>(), nullptr, nullptr});
  fpga::ChainModule nested{"nested", std::move(outer)};
  EXPECT_EQ(nested.stage_timings().size(), 3u);
}

TEST(ChainModuleUnit, ConfigureRoutesFramedBlobsToStages) {
  std::vector<fpga::ChainStageSlot> slots;
  slots.push_back({std::make_unique<accel::CompressionModule>(), nullptr,
                   nullptr});
  slots.push_back({std::make_unique<accel::Aes256CtrModule>(), nullptr,
                   nullptr});
  fpga::ChainModule chain{"c", std::move(slots)};

  // Frame only stage 1; stage 0 has no configuration (empty blobs are
  // skipped by the encoder).
  const auto blob = fpga::encode_chain_config(
      {{}, accel::aes256_ctr_test_config()});
  chain.configure(blob);
  const auto& aes =
      static_cast<const accel::Aes256CtrModule&>(chain.stage(1));
  EXPECT_TRUE(aes.configured());

  // Malformed blobs are rejected loudly.
  EXPECT_THROW(chain.configure(std::vector<std::uint8_t>{0x00, 0x01}),
               std::invalid_argument);  // truncated frame header
  EXPECT_THROW(chain.configure(std::vector<std::uint8_t>{7, 0, 0, 0, 0}),
               std::invalid_argument);  // stage index out of range
  EXPECT_THROW(chain.configure(std::vector<std::uint8_t>{0, 9, 0, 0, 0, 1}),
               std::invalid_argument);  // truncated payload
}

using StageFactory = std::function<fpga::ModulePtr()>;

fpga::ModulePtr make_aes_stage() {
  auto aes = std::make_unique<accel::Aes256CtrModule>();
  aes->configure(accel::aes256_ctr_test_config());
  return aes;
}

/// One chain built from `stages`, each stage slot with its own
/// records/bytes counters (the dhl.chain.stage_records/bytes seam).
struct CountedChain {
  CountedChain(const std::vector<StageFactory>& stages,
               std::size_t result_stage) {
    std::vector<fpga::ChainStageSlot> slots;
    for (const StageFactory& make : stages) {
      telemetry::Counter& records = counters.emplace_back();
      telemetry::Counter& bytes = counters.emplace_back();
      slots.push_back({make(), &records, &bytes});
    }
    chain = std::make_unique<fpga::ChainModule>("twin", std::move(slots),
                                                result_stage);
  }
  std::deque<telemetry::Counter> counters;
  std::unique_ptr<fpga::ChainModule> chain;
};

/// One process_batch() call over `records` must equal per-record process()
/// calls on a twin chain: bytes, result words, lengths, the unmodified
/// flag and every stage counter.
void expect_batch_matches_per_record(
    const std::vector<StageFactory>& stages, std::size_t result_stage,
    const std::vector<std::vector<std::uint8_t>>& records) {
  CountedChain per_record{stages, result_stage};
  CountedChain batched{stages, result_stage};

  std::vector<std::vector<std::uint8_t>> want_bytes = records;
  std::vector<fpga::ProcessResult> want;
  for (auto& r : want_bytes) want.push_back(per_record.chain->process(r));

  std::vector<std::vector<std::uint8_t>> got_bytes = records;
  std::vector<std::span<std::uint8_t>> datas(got_bytes.begin(),
                                             got_bytes.end());
  std::vector<fpga::ProcessResult> got(records.size());
  batched.chain->process_batch(datas, got);

  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(got[i].result, want[i].result) << "record " << i;
    EXPECT_EQ(got[i].new_len, want[i].new_len) << "record " << i;
    EXPECT_EQ(got[i].data_unmodified, want[i].data_unmodified)
        << "record " << i;
    EXPECT_EQ(got_bytes[i], want_bytes[i]) << "record " << i;
  }
  ASSERT_EQ(batched.counters.size(), per_record.counters.size());
  for (std::size_t c = 0; c < batched.counters.size(); ++c) {
    EXPECT_EQ(batched.counters[c].value(), per_record.counters[c].value())
        << "counter " << c;
  }
  // Independently of both paths: every stage counts every record, the
  // first stage the entry lengths and the last stage (never a shrinking
  // one in these chains) the final lengths.
  std::uint64_t entry_bytes = 0;
  std::uint64_t final_bytes = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    entry_bytes += records[i].size();
    final_bytes += want[i].new_len;
  }
  for (std::size_t s = 0; s < stages.size(); ++s) {
    EXPECT_EQ(batched.counters[2 * s].value(), records.size()) << "stage " << s;
  }
  EXPECT_EQ(batched.counters[1].value(), entry_bytes);
  EXPECT_EQ(batched.counters.back().value(), final_bytes);
}

/// IMIX frames (7:4:1 of 64/570/1500 B) with random payloads.
std::vector<std::vector<std::uint8_t>> imix_frames(std::size_t n) {
  netio::TrafficConfig cfg;
  cfg.size_mix = {{64, 7}, {570, 4}, {1500, 1}};
  cfg.seed = 24;
  netio::FrameFactory factory{cfg};
  netio::MbufPool pool{"imix", 1, 2048, 0};
  std::vector<std::vector<std::uint8_t>> out;
  for (std::size_t i = 0; i < n; ++i) {
    netio::Mbuf* m = pool.alloc();
    factory.build(*m);
    out.emplace_back(m->payload().begin(), m->payload().end());
    m->release();
  }
  return out;
}

/// Compressible text and random (incompressible) records, interleaved, so
/// a shrinking front stage changes lengths mid-run.
std::vector<std::vector<std::uint8_t>> mixed_compressibility() {
  std::vector<std::vector<std::uint8_t>> out;
  for (std::size_t i = 0; i < 12; ++i) {
    if (i % 2 == 0) {
      out.push_back(compressible_text(300 + 90 * i));
    } else {
      std::vector<std::uint8_t> r(200 + 70 * i);
      for (std::size_t b = 0; b < r.size(); ++b) {
        r[b] = static_cast<std::uint8_t>((b * 2654435761u + i) >> 13);
      }
      out.push_back(std::move(r));
    }
  }
  return out;
}

TEST(ChainModuleUnit, ProcessBatchMatchesPerRecord) {
  const StageFactory md5 = [] { return std::make_unique<accel::Md5Module>(); };
  const StageFactory lz = [] {
    return std::make_unique<accel::CompressionModule>();
  };
  const StageFactory aes = make_aes_stage;
  const StageFactory nested = [] {
    return std::make_unique<fpga::ChainModule>(make_compncrypt_chain());
  };
  constexpr std::size_t kLast = fpga::ChainModule::kResultFromLast;

  const auto frames = imix_frames(16);
  const auto mixed = mixed_compressibility();
  // The mixed run really does shrink some records and not others.
  accel::CompressionModule probe;
  std::size_t shrunk = 0;
  for (auto r : mixed) shrunk += probe.process(r).new_len < r.size();
  ASSERT_GT(shrunk, 0u);
  ASSERT_LT(shrunk, mixed.size());

  {
    SCOPED_TRACE("md5-auth -> aes256-ctr");
    expect_batch_matches_per_record({md5, aes}, kLast, frames);
  }
  {
    SCOPED_TRACE("compression -> aes256-ctr");
    expect_batch_matches_per_record({lz, aes}, kLast, mixed);
  }
  {
    SCOPED_TRACE("nested (compression -> aes256-ctr) -> md5-auth");
    std::vector<std::vector<std::uint8_t>> both = mixed;
    both.insert(both.end(), frames.begin(), frames.end());
    expect_batch_matches_per_record({nested, md5}, kLast, both);
  }
  {
    SCOPED_TRACE("result_stage = 0");
    expect_batch_matches_per_record({lz, aes}, 0, mixed);
    expect_batch_matches_per_record({md5, aes}, 0, frames);
  }
}

// --- runtime-level fixtures -------------------------------------------------

struct FusedChainFixture : public ::testing::Test {
  explicit FusedChainFixture(TestbedConfig config = {})
      : tb{std::move(config)} {}

  Testbed tb;
  netio::NicPort* port0 = tb.add_port("p0", Bandwidth::gbps(10));
  std::shared_ptr<match::RuleSet> rules = std::make_shared<match::RuleSet>(
      match::RuleSet::builtin_snort_sample());
  std::shared_ptr<const match::AhoCorasick> automaton =
      NidsProcessor::build_automaton(*rules);

  ChainStage compress_stage() {
    return ChainStage::offload("lz77", "compression", {}, nullptr, nullptr);
  }
  ChainStage encrypt_stage() {
    return ChainStage::offload("aes", "aes256-ctr",
                               accel::aes256_ctr_test_config(), nullptr,
                               nullptr);
  }
  ChainStage capture_stage(std::vector<std::vector<std::uint8_t>>* out) {
    return ChainStage::cpu(
        "capture",
        [out](netio::Mbuf& m) {
          out->emplace_back(m.payload().begin(), m.payload().end());
          return Verdict::kForward;
        },
        [](const netio::Mbuf&) { return 30.0; });
  }

  netio::TrafficConfig text_traffic() {
    netio::TrafficConfig t;
    t.frame_len = 512;
    t.payload = netio::PayloadKind::kTextAttacks;
    t.attack_probability = 0.02;
    t.attack_strings = {"/bin/sh"};
    return t;
  }

  double msum(const std::string& name, const telemetry::Labels& labels = {}) {
    return tb.telemetry().metrics.snapshot(tb.sim().now()).sum(name, labels);
  }
};

TEST_F(FusedChainFixture, ComposeChainValidatesItsInputs) {
  auto& rt = tb.init_runtime(automaton);

  EXPECT_FALSE(DHL_compose_chain(rt, "solo", {"compression"}, 0).valid());
  EXPECT_FALSE(
      DHL_compose_chain(rt, "bad", {"compression", "no-such-hf"}, 0).valid());
  // pattern-matching (524 BRAM) + ipsec-crypto (242 BRAM) exceeds the
  // 560-BRAM PR-region budget: composition is refused at load time.
  EXPECT_FALSE(
      DHL_compose_chain(rt, "giant", {"pattern-matching", "ipsec-crypto"}, 0)
          .valid());

  const runtime::AccHandle h =
      DHL_compose_chain(rt, "compnc", {"compression", "aes256-ctr"}, 0);
  ASSERT_TRUE(h.valid());
  // Re-composition by name (the stale-handle re-resolution path) shares the
  // already-registered fusion.
  const runtime::AccHandle again = DHL_compose_chain(rt, "compnc", {}, 0);
  ASSERT_TRUE(again.valid());
  EXPECT_EQ(again.acc_id, h.acc_id);

  tb.run_for(milliseconds(80));
  EXPECT_TRUE(rt.acc_ready(h));
}

TEST_F(FusedChainFixture, FusedAndPerStageChainsAreBitIdentical) {
  netio::NicPort* port1 = tb.add_port("p1", Bandwidth::gbps(10));
  auto& rt = tb.init_runtime(automaton);

  std::vector<std::vector<std::uint8_t>> fused_out;
  std::vector<std::vector<std::uint8_t>> split_out;

  ChainNf fused{tb.sim(),
                ChainConfig{.name = "cc-fused", .timing = tb.timing()},
                {port0},
                &rt,
                {compress_stage(), encrypt_stage(), capture_stage(&fused_out)}};
  ChainNf split{tb.sim(),
                ChainConfig{.name = "cc-split", .timing = tb.timing(),
                            .fuse = false},
                {port1},
                &rt,
                {compress_stage(), encrypt_stage(), capture_stage(&split_out)}};

  ASSERT_EQ(fused.segments().size(), 1u);
  EXPECT_EQ(fused.segments()[0].first, 0u);
  EXPECT_EQ(fused.segments()[0].last, 1u);
  EXPECT_EQ(fused.segments()[0].chain_name, "compression+aes256-ctr");
  EXPECT_TRUE(split.segments().empty());

  tb.run_for(milliseconds(150));  // three PR loads (lz77, aes, fused chain)
  ASSERT_TRUE(fused.ready());
  ASSERT_TRUE(split.ready());
  rt.start();
  fused.start();
  split.start();

  // Identical TrafficConfig + seed => identical offered byte streams.
  port0->start_traffic(text_traffic(), 0.25);
  port1->start_traffic(text_traffic(), 0.25);
  tb.measure(milliseconds(2), milliseconds(5));
  port0->stop_traffic();
  port1->stop_traffic();
  tb.run_for(milliseconds(3));

  const ChainStats& fs = fused.stats();
  const ChainStats& ss = split.stats();
  EXPECT_GT(fs.completed, 1'000u);
  EXPECT_GT(ss.completed, 1'000u);
  // The fused chain crosses PCIe once per packet; the split chain twice.
  EXPECT_GT(fs.fused_offloads, 1'000u);
  EXPECT_EQ(fs.fused_offloads, fs.offloads);
  EXPECT_EQ(ss.fused_offloads, 0u);
  EXPECT_NEAR(static_cast<double>(ss.offloads),
              2.0 * static_cast<double>(ss.completed),
              0.02 * static_cast<double>(ss.offloads));

  // Bit parity: every delivered payload matches its per-stage twin.
  const std::size_t n = std::min(fused_out.size(), split_out.size());
  ASSERT_GT(n, 1'000u);
  for (std::size_t i = 0; i < n; ++i) {
    if (fused_out[i] != split_out[i]) {
      ADD_FAILURE() << "fused/split payload mismatch at packet " << i;
      break;
    }
  }

  // Per-stage telemetry attribution for the fused handle.
  EXPECT_GT(msum("dhl.chain.stage_records",
                 {{"chain", "compression+aes256-ctr"}, {"idx", "0"}}),
            0.0);
  EXPECT_GT(msum("dhl.chain.stage_records",
                 {{"chain", "compression+aes256-ctr"}, {"idx", "1"}}),
            0.0);

  EXPECT_EQ(
      rt.telemetry().metrics.snapshot().sum("dhl.runtime.error_records"), 0);
  EXPECT_TRUE(tb.quiesce_ledger().clean());
}

TEST_F(FusedChainFixture, FusedChainSurvivesDaemonUnloadMidRun) {
  auto& rt = tb.init_runtime(automaton);
  ChainNf chain{tb.sim(),
                ChainConfig{.name = "cc-live", .timing = tb.timing()},
                {port0},
                &rt,
                {compress_stage(), encrypt_stage()}};
  ASSERT_EQ(chain.segments().size(), 1u);
  tb.run_for(milliseconds(150));
  ASSERT_TRUE(chain.ready());
  rt.start();
  chain.start();

  port0->start_traffic(text_traffic(), 0.2);
  tb.run_for(milliseconds(3));
  const std::uint64_t fused_before = chain.stats().fused_offloads;
  const std::uint64_t done_before = chain.stats().completed;
  EXPECT_GT(fused_before, 0u);

  // The daemon yanks the fused bitstream out from under the running chain.
  ASSERT_GE(rt.unload_function("compression+aes256-ctr"), 1u);
  tb.run_for(milliseconds(10));

  // The stale handle was detected and re-resolved; per-stage round trips
  // carried traffic while the chain's PR reload was in flight.
  EXPECT_GE(chain.stats().handle_refreshes, 1u);
  EXPECT_GT(chain.stats().completed, done_before);
  const std::uint64_t fused_mid = chain.stats().fused_offloads;

  // After the reload completes the fused path resumes.
  tb.run_for(milliseconds(60));
  EXPECT_GT(chain.stats().fused_offloads, fused_mid);

  port0->stop_traffic();
  EXPECT_TRUE(tb.quiesce_ledger().clean());
}

TEST_F(FusedChainFixture, ChainOffloadsPassTenantQuotaAdmission) {
  auto& rt = tb.init_runtime(automaton);
  const TenantId tenant =
      DHL_register_tenant(rt, "chains", {.outstanding_bytes_cap = 8192});
  ASSERT_NE(tenant, kInvalidTenant);

  ChainNf chain{tb.sim(),
                ChainConfig{.name = "cc-quota", .timing = tb.timing(),
                            .tenant = tenant},
                {port0},
                &rt,
                {compress_stage(), encrypt_stage()}};
  tb.run_for(milliseconds(150));
  ASSERT_TRUE(chain.ready());
  rt.start();
  chain.start();

  port0->start_traffic(text_traffic(), 0.8);  // flood past the byte cap
  tb.measure(milliseconds(2), milliseconds(5));
  port0->stop_traffic();
  tb.run_for(milliseconds(3));

  // Chain traffic flows through the tenant-aware instance API: refusals are
  // visible both to the NF and in the tenant's ledgered metrics.
  EXPECT_GT(chain.stats().ibq_drops, 0u);
  EXPECT_GT(msum("dhl.tenant.rejected_pkts", {{"tenant", "chains"}}), 0.0);
  EXPECT_GT(msum("dhl.tenant.admitted_pkts", {{"tenant", "chains"}}), 0.0);
  EXPECT_GT(chain.stats().completed, 0u);
  EXPECT_TRUE(tb.quiesce_ledger().clean());
}

TEST_F(FusedChainFixture, CompressThenEncryptChainInvertsAtTheHost) {
  auto& rt = tb.init_runtime(automaton);

  // Ingress prep: a CPU stage replaces each frame's payload with a seeded,
  // compressible record of another length, so the fused run starts from a
  // record the prep resized.  Every record opens with its sequence number,
  // which lets the host pair each output with the record it came from.
  std::vector<std::vector<std::uint8_t>> built;
  ChainStage prep = ChainStage::cpu(
      "lz-prep",
      [&built](netio::Mbuf& m) {
        const auto seq = static_cast<std::uint32_t>(built.size());
        built.push_back(vocabulary_record(seq, m.data_len()));
        m.assign(built.back());
        return Verdict::kForward;
      },
      [](const netio::Mbuf&) { return 120.0; });

  std::vector<std::vector<std::uint8_t>> outputs;
  ChainNf chain{tb.sim(),
                ChainConfig{.name = "lz-chain", .timing = tb.timing()},
                {port0},
                &rt,
                {std::move(prep), compress_stage(), encrypt_stage(),
                 capture_stage(&outputs)}};
  ASSERT_EQ(chain.segments().size(), 1u);
  EXPECT_EQ(chain.segments()[0].chain_name, "compression+aes256-ctr");

  tb.run_for(milliseconds(150));
  ASSERT_TRUE(chain.ready());
  rt.start();
  chain.start();

  netio::TrafficConfig traffic;
  traffic.frame_len = 512;
  port0->start_traffic(traffic, 0.1);
  tb.run_for(milliseconds(4));
  port0->stop_traffic();
  tb.run_for(milliseconds(3));

  EXPECT_GT(chain.stats().fused_offloads, 0u);
  ASSERT_GT(outputs.size(), 100u);
  ASSERT_EQ(outputs.size(), built.size());
  const auto longer = std::count_if(
      built.begin(), built.end(),
      [&](const auto& r) { return r.size() > traffic.frame_len; });
  EXPECT_GT(longer, 0);
  EXPECT_LT(longer, static_cast<std::ptrdiff_t>(built.size()));

  // Receiver side, independent of the modules: decrypt (CTR is an
  // involution), then decompress; the result must be the record the prep
  // built, and every record must come back exactly once.
  const auto key_iv = accel::aes256_ctr_test_config();
  const crypto::Aes256 cipher{
      std::span<const std::uint8_t, 32>{key_iv.data(), 32}};
  const std::span<const std::uint8_t, 16> iv{key_iv.data() + 32, 16};
  std::vector<bool> seen(built.size(), false);
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    std::vector<std::uint8_t>& out = outputs[i];
    crypto::aes256_ctr(cipher, iv, out, out);
    std::vector<std::uint8_t> plain;
    ASSERT_NO_THROW(plain = accel::lz77_decompress(out)) << "output " << i;
    ASSERT_GE(plain.size(), 4u) << "output " << i;
    std::uint32_t seq = 0;
    std::memcpy(&seq, plain.data(), sizeof seq);
    ASSERT_LT(seq, built.size()) << "output " << i;
    EXPECT_FALSE(seen[seq]) << "record " << seq << " delivered twice";
    seen[seq] = true;
    EXPECT_LT(out.size(), plain.size()) << "record " << seq << " not shrunk";
    EXPECT_EQ(plain, built[seq]) << "record " << seq;
  }

  EXPECT_EQ(
      rt.telemetry().metrics.snapshot().sum("dhl.runtime.error_records"), 0);
  EXPECT_TRUE(tb.quiesce_ledger().clean());
}

// --- engine fixes under every core layout and NF shape ----------------------

// One engine runs every DHL NF, so its fixes must hold for each NF shape --
// a plain ChainNf and the paper's two-stage DhlOffloadNf -- in both core
// layouts that may offload (kSplit, kPerPort).  test_nf_models covers the
// CPU-only kPipeline.
enum class NfShape { kChain, kDhlOffload };

struct EngineCase {
  NfShape shape;
  CoreLayout layout;
};

class EngineRegression : public FusedChainFixture,
                         public ::testing::WithParamInterface<EngineCase> {
 protected:
  // One socket halves the runtime's transfer cores and loopback's small
  // bitstream reloads in ~5 ms: these tests run in every layout and shape,
  // and every simulated idle poll costs host time (sanitizer builds most).
  static TestbedConfig one_socket() {
    TestbedConfig config;
    config.runtime.num_sockets = 1;
    return config;
  }
  EngineRegression() : FusedChainFixture{one_socket()} {}

  netio::NicPort* port1 = tb.add_port("p1", Bandwidth::gbps(10));

  /// The NF under test, on both ports.  The chain shape runs `stages`; the
  /// DhlOffloadNf shape runs `prep`, then loopback with a forwarding post.
  std::unique_ptr<ChainNf> make_nf(runtime::DhlRuntime* rt,
                                   std::vector<ChainStage> stages,
                                   PacketFn prep) {
    const CostFn cost = [](const netio::Mbuf&) { return 5.0; };
    const CoreLayout layout = GetParam().layout;
    if (GetParam().shape == NfShape::kChain) {
      return std::make_unique<ChainNf>(
          tb.sim(),
          ChainConfig{.name = "nf-under-test",
                      .timing = tb.timing(),
                      .layout = layout},
          std::vector<netio::NicPort*>{port0, port1}, rt, std::move(stages));
    }
    DhlNfConfig cfg;
    cfg.name = "nf-under-test";
    cfg.timing = tb.timing();
    cfg.layout = layout;
    cfg.hf_name = "loopback";
    return std::make_unique<DhlOffloadNf>(
        tb.sim(), cfg, std::vector<netio::NicPort*>{port0, port1}, *rt,
        std::move(prep), cost, [](netio::Mbuf&) { return Verdict::kForward; },
        cost);
  }

  void start_traffic(double load) {
    port0->start_traffic(text_traffic(), load);
    netio::TrafficConfig other = text_traffic();
    other.seed = 2;
    port1->start_traffic(other, load);
  }
};

TEST_P(EngineRegression, BadPortIsCountedAndDroppedNotMisTxed) {
  // A stage steers packets to a port id the NF does not own: the engine
  // must drop and count, never transmit on some other port.  The chain
  // shape stays CPU-only; the DhlOffloadNf shape missteers in prep and
  // transmits after the FPGA round trip.
  const PacketFn missteer = [](netio::Mbuf& m) {
    m.set_port(77);
    return Verdict::kForward;
  };
  const bool offload = GetParam().shape == NfShape::kDhlOffload;
  runtime::DhlRuntime* rt = offload ? &tb.init_runtime() : nullptr;
  const auto nf = make_nf(
      rt,
      {ChainStage::cpu("missteer", missteer,
                       [](const netio::Mbuf&) { return 5.0; })},
      missteer);
  if (rt != nullptr) {
    tb.run_for(milliseconds(10));
    ASSERT_TRUE(nf->ready());
    rt->start();
  }
  nf->start();
  start_traffic(0.3);
  tb.measure(milliseconds(1), milliseconds(2));

  EXPECT_GT(nf->stats().bad_port_drops, 0u);
  EXPECT_EQ(nf->stats().completed, 0u);
  EXPECT_EQ(port0->tx_meter().frames(), 0u);
  EXPECT_EQ(port1->tx_meter().frames(), 0u);
  EXPECT_TRUE(tb.quiesce_ledger(milliseconds(1)).clean());
}

TEST_P(EngineRegression, PerStageHandleReresolvedAfterUnload) {
  auto& rt = tb.init_runtime();
  const auto nf = make_nf(
      &rt, {ChainStage::offload("loop", "loopback", {}, nullptr, nullptr)},
      [](netio::Mbuf&) { return Verdict::kForward; });
  tb.run_for(milliseconds(10));
  ASSERT_TRUE(nf->ready());
  rt.start();
  nf->start();

  start_traffic(0.2);
  tb.run_for(milliseconds(2));
  const std::uint64_t done_before = nf->stats().completed;
  EXPECT_GT(done_before, 0u);

  ASSERT_GE(rt.unload_function("loopback"), 1u);
  tb.run_for(milliseconds(8));  // re-resolve + PR reload + resume

  EXPECT_GE(nf->stats().handle_refreshes, 1u);
  EXPECT_GT(nf->stats().completed, done_before);
  // Packets shipped during the reload window are counted unready drops,
  // never crashes or mis-routes.
  EXPECT_GT(msum("dhl.runtime.unready_drops"), 0.0);
  EXPECT_TRUE(tb.quiesce_ledger(milliseconds(1)).clean());
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, EngineRegression,
    ::testing::Values(EngineCase{NfShape::kChain, CoreLayout::kSplit},
                      EngineCase{NfShape::kChain, CoreLayout::kPerPort},
                      EngineCase{NfShape::kDhlOffload, CoreLayout::kSplit},
                      EngineCase{NfShape::kDhlOffload, CoreLayout::kPerPort}),
    [](const ::testing::TestParamInfo<EngineCase>& info) {
      return std::string{info.param.shape == NfShape::kChain ? "Chain"
                                                             : "DhlOffload"} +
             (info.param.layout == CoreLayout::kSplit ? "Split" : "PerPort");
    });

}  // namespace
}  // namespace dhl::nf
