// Microbenchmarks (google-benchmark, real wall-clock time): the functional
// primitives under the simulation -- crypto, pattern matching, compression,
// rings, LPM, mempool.  These check that the *functional* implementations
// are fast enough to feed the virtual-time experiments, and they document
// the raw software costs that motivate offloading in the first place.
//
// With `--micro-out=<path>` the binary instead runs the transfer-layer
// micro-bench (host ns/pkt of the Packer and Distributor polls on the one
// SG/pooled transfer path, see bench_common.hpp) plus the introspection
// on/off A/B, and writes a machine-readable JSON -- the artifact the CI perf
// smoke checks.  `--crc-ab` runs the interleaved on/off pairing that
// isolates the Distributor CRC gate's cost.
// `--kernel-ab` pairs each registered CPU vector kernel (common/simd.hpp)
// against its scalar reference and measures the quarantine fallback path
// end to end under both ISA caps.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "bench_common.hpp"

#include "dhl/accel/lz77.hpp"
#include "dhl/common/rng.hpp"
#include "dhl/crypto/aes.hpp"
#include "dhl/crypto/md5.hpp"
#include "dhl/crypto/sha1.hpp"
#include "dhl/match/aho_corasick.hpp"
#include "dhl/match/ruleset.hpp"
#include "dhl/netio/lpm.hpp"
#include "dhl/netio/mempool.hpp"
#include "dhl/netio/ring.hpp"

namespace {

using namespace dhl;

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng{seed};
  std::vector<std::uint8_t> out(n);
  rng.fill(out.data(), n);
  return out;
}

void BM_Aes256CtrEncrypt(benchmark::State& state) {
  std::array<std::uint8_t, 32> key{};
  for (std::size_t i = 0; i < 32; ++i) key[i] = static_cast<std::uint8_t>(i);
  crypto::Aes256 aes{key};
  std::array<std::uint8_t, 16> ctr{};
  auto buf = random_bytes(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    crypto::aes256_ctr(aes, ctr, buf, buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Aes256CtrEncrypt)->Arg(64)->Arg(512)->Arg(1500)->Arg(6144);

void BM_HmacSha1(benchmark::State& state) {
  const auto key = random_bytes(20, 2);
  crypto::HmacSha1 mac{key};
  const auto buf = random_bytes(static_cast<std::size_t>(state.range(0)), 3);
  std::array<std::uint8_t, 12> icv{};
  for (auto _ : state) {
    mac.icv96(buf, icv);
    benchmark::DoNotOptimize(icv.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HmacSha1)->Arg(64)->Arg(512)->Arg(1500);

void BM_Md5(benchmark::State& state) {
  const auto buf = random_bytes(static_cast<std::size_t>(state.range(0)), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Md5::digest(buf));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Md5)->Arg(512)->Arg(1500);

void BM_AhoCorasickScan(benchmark::State& state) {
  const auto rules = match::RuleSet::builtin_snort_sample();
  const auto ac = match::AhoCorasick::build(rules.patterns(), true);
  const auto buf = random_bytes(static_cast<std::size_t>(state.range(0)), 5);
  std::vector<match::PatternMatch> hits;
  for (auto _ : state) {
    hits.clear();
    ac.find_all(buf, hits);
    benchmark::DoNotOptimize(hits.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AhoCorasickScan)->Arg(64)->Arg(512)->Arg(1500);

void BM_Lz77Compress(benchmark::State& state) {
  // Text-like data (compressible).
  std::vector<std::uint8_t> buf;
  const char* text = "packet processing at line rate with batching ";
  while (buf.size() < static_cast<std::size_t>(state.range(0))) {
    buf.insert(buf.end(), text, text + 46);
  }
  buf.resize(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(accel::lz77_compress(buf));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Lz77Compress)->Arg(1500)->Arg(6144);

void BM_RingEnqueueDequeueBurst(benchmark::State& state) {
  netio::Ring<void*> ring{"bench", 1024, netio::SyncMode::kSingle,
                          netio::SyncMode::kSingle};
  const std::size_t burst = static_cast<std::size_t>(state.range(0));
  std::vector<void*> items(burst, nullptr);
  for (auto _ : state) {
    ring.enqueue_burst({items.data(), burst});
    ring.dequeue_burst({items.data(), burst});
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(burst));
}
BENCHMARK(BM_RingEnqueueDequeueBurst)->Arg(1)->Arg(32)->Arg(64);

void BM_LpmLookup(benchmark::State& state) {
  netio::LpmTable table{1024};
  Xoshiro256 rng{7};
  for (int i = 0; i < 1000; ++i) {
    table.add(static_cast<std::uint32_t>(rng()),
              static_cast<std::uint8_t>(8 + rng.bounded(25)),
              static_cast<std::uint16_t>(rng.bounded(1000)));
  }
  std::vector<std::uint32_t> addrs(1024);
  for (auto& a : addrs) a = static_cast<std::uint32_t>(rng());
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(addrs[i++ & 1023]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LpmLookup);

void BM_MempoolAllocFree(benchmark::State& state) {
  netio::MbufPool pool{"bench", 4096, 2048, 0};
  for (auto _ : state) {
    netio::Mbuf* m = pool.alloc();
    benchmark::DoNotOptimize(m);
    m->release();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MempoolAllocFree);

}  // namespace

int main(int argc, char** argv) {
  const std::string micro_out = dhl::bench::micro_out_arg(argc, argv);
  if (!micro_out.empty()) {
    return dhl::bench::run_transfer_micro_suite(micro_out) ? 0 : 1;
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--crc-ab") == 0) {
      return dhl::bench::run_crc_ab_suite() ? 0 : 1;
    }
    if (std::strcmp(argv[i], "--kernel-ab") == 0) {
      return dhl::bench::run_kernel_ab_suite().empty() ? 1 : 0;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
