// Deterministic wire-format fuzzing (DESIGN.md section 3.3).
//
// Two layers:
//
//   1. Structural: seeded mutations (bit flips, truncation, extension) of
//      raw DmaBatch buffers fed to RecordCursor / parse() / retag_acc().
//      Every walk must either complete with in-bounds record views or throw
//      std::runtime_error -- no out-of-bounds access (the CI sanitizer job
//      re-runs this under ASan/UBSan with extra seeds), no silent
//      desynchronization.
//
//   2. End-to-end: a full runtime under a completion-corruption fault mix;
//      every batch either parses cleanly (delivered, payload intact) or is
//      counted dropped by the Distributor's integrity gate.  The packet
//      conservation invariant must hold exactly.
//
// The seed comes from DHL_FUZZ_SEED (any strtoull-parsable form) so CI can
// re-run the same binary over multiple schedules; unset = a fixed default,
// keeping the default test run bit-reproducible.

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "dhl/accel/catalog.hpp"
#include "dhl/common/rng.hpp"
#include "dhl/fpga/batch.hpp"
#include "dhl/fpga/fault_hook.hpp"
#include "dhl/netio/mempool.hpp"
#include "dhl/runtime/fault.hpp"
#include "dhl/runtime/runtime.hpp"
#include "dhl/telemetry/drop_site.hpp"

namespace dhl::runtime {
namespace {

using fpga::DmaBatch;
using fpga::FaultKind;
using fpga::FaultSite;
using fpga::FpgaDevice;
using fpga::RecordCursor;
using fpga::RecordView;
using netio::Mbuf;
using netio::MbufPool;

std::uint64_t fuzz_seed() {
  const char* env = std::getenv("DHL_FUZZ_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 0);
  }
  return 0xD0E5F00DULL;
}

/// Apply one seeded mutation to a batch's wire buffer.
void mutate(Xoshiro256& rng, std::vector<std::uint8_t>& buf) {
  switch (rng.bounded(4)) {
    case 0: {  // flip 1..8 random bits
      if (buf.empty()) break;
      const std::uint64_t flips = 1 + rng.bounded(8);
      for (std::uint64_t i = 0; i < flips; ++i) {
        buf[rng.bounded(buf.size())] ^=
            static_cast<std::uint8_t>(1u << rng.bounded(8));
      }
      break;
    }
    case 1:  // truncate to a random prefix (possibly mid-header)
      buf.resize(rng.bounded(buf.size() + 1));
      break;
    case 2: {  // append random garbage
      const std::uint64_t extra = 1 + rng.bounded(48);
      const std::size_t old = buf.size();
      buf.resize(old + extra);
      rng.fill(buf.data() + old, extra);
      break;
    }
    default: {  // overwrite a random header-sized window
      if (buf.size() < fpga::kRecordHeaderBytes) break;
      const std::uint64_t at =
          rng.bounded(buf.size() - fpga::kRecordHeaderBytes + 1);
      rng.fill(buf.data() + at, fpga::kRecordHeaderBytes);
      break;
    }
  }
}

TEST(BatchFuzz, MutatedBuffersParseInBoundsOrThrow) {
  Xoshiro256 rng{fuzz_seed()};
  constexpr int kIters = 4000;
  int clean = 0;
  int rejected = 0;
  for (int iter = 0; iter < kIters; ++iter) {
    DmaBatch batch{static_cast<netio::AccId>(rng.bounded(256))};
    const std::uint64_t nrec = 1 + rng.bounded(6);
    for (std::uint64_t r = 0; r < nrec; ++r) {
      std::vector<std::uint8_t> data(1 + rng.bounded(200));
      rng.fill(data.data(), data.size());
      batch.append(static_cast<netio::NfId>(rng.bounded(8)), data, nullptr);
    }
    mutate(rng, batch.buffer());

    // Cursor walk: every yielded view must stay inside the buffer.
    bool ok = true;
    try {
      RecordCursor cursor{batch};
      RecordView v;
      while (cursor.next(v)) {
        ASSERT_LE(v.data_offset, batch.buffer().size());
        ASSERT_LE(v.data_offset + v.header.data_len, batch.buffer().size());
      }
    } catch (const std::runtime_error&) {
      ok = false;
    }
    // parse() must agree with the cursor about validity.
    try {
      const auto views = batch.parse();
      EXPECT_TRUE(ok) << "parse accepted what the cursor rejected";
      for (const RecordView& v : views) {
        ASSERT_LE(v.data_offset + v.header.data_len, batch.buffer().size());
      }
    } catch (const std::runtime_error&) {
      EXPECT_FALSE(ok) << "parse rejected what the cursor accepted";
      ok = false;
    }
    // retag never writes out of bounds; on a valid buffer it must keep it
    // valid (retag only rewrites acc_id bytes).
    try {
      batch.retag_acc(static_cast<netio::AccId>(rng.bounded(256)));
      if (ok) batch.parse();
    } catch (const std::runtime_error&) {
    }
    ok ? ++clean : ++rejected;
  }
  // The mutation mix must exercise both outcomes, or the fuzz is vacuous.
  EXPECT_GT(clean, 0);
  EXPECT_GT(rejected, 0);
}

TEST(BatchFuzz, RuntimeIngestParsesCleanlyOrCountsDrop) {
  sim::Simulator sim;
  fpga::FpgaDeviceConfig fc;
  FpgaDevice dev{sim, fc};
  RuntimeConfig cfg;
  DhlRuntime rt{sim, cfg, accel::standard_module_database(nullptr), {&dev}};
  MbufPool pool{"fuzz", 8192, 2048, 0};

  const netio::NfId nf = rt.register_nf("nf0", 0);
  const AccHandle a = rt.search_by_name("loopback", 0);
  sim.run_until(sim.now() + milliseconds(10));
  ASSERT_TRUE(rt.acc_ready(a));
  rt.start();

  // Mixed completion-side corruption; rand() picks which byte/bit each
  // fired fault mangles, so one seed covers many distinct mutations.
  FaultInjector inj{sim, rt.telemetry(), fuzz_seed()};
  rt.set_fault_injector(&inj);
  inj.add_rule({.site = FaultSite::kDmaCompletion,
                .kind = FaultKind::kCorruptHeader,
                .probability = 0.08});
  inj.add_rule({.site = FaultSite::kDmaCompletion,
                .kind = FaultKind::kFlipUnmodifiedFlag,
                .probability = 0.08});
  inj.add_rule({.site = FaultSite::kDmaCompletion,
                .kind = FaultKind::kTruncateTail,
                .probability = 0.08});

  constexpr std::uint32_t kLen = 120;
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  Mbuf* out[64];
  for (int wave = 0; wave < 60; ++wave) {
    for (int i = 0; i < 16; ++i) {
      Mbuf* m = pool.alloc();
      m->assign(std::vector<std::uint8_t>(kLen, 0x42));
      m->set_nf_id(nf);
      m->set_acc_id(a.acc_id);
      m->set_rx_timestamp(sim.now() == 0 ? 1 : sim.now());
      if (rt.send_packets(nf, &m, 1) == 1) {
        ++sent;
      } else {
        m->release();
      }
    }
    sim.run_until(sim.now() + microseconds(100));
    std::size_t got;
    while ((got = DhlRuntime::receive_packets(rt.get_private_obq(nf), out,
                                              64)) > 0) {
      for (std::size_t i = 0; i < got; ++i) {
        // Anything that survives the integrity gate is undamaged: length
        // and payload bytes still exactly as sent (no mbuf desync).
        EXPECT_EQ(out[i]->data_len(), kLen);
        EXPECT_EQ(out[i]->data()[0], 0x42);
        EXPECT_EQ(out[i]->data()[kLen - 1], 0x42);
        out[i]->release();
        ++received;
      }
    }
  }
  // Let quarantines expire and everything in flight drain.
  sim.run_until(sim.now() + milliseconds(5));
  std::size_t got;
  while ((got = DhlRuntime::receive_packets(rt.get_private_obq(nf), out,
                                            64)) > 0) {
    for (std::size_t i = 0; i < got; ++i) {
      EXPECT_EQ(out[i]->data_len(), kLen);
      out[i]->release();
      ++received;
    }
  }
  rt.stop();

  const auto snap = rt.telemetry().metrics.snapshot();
  const auto count = [&](std::string_view name) {
    return static_cast<std::uint64_t>(snap.sum(name));
  };
  // Exact conservation: every accepted packet was delivered or counted at
  // exactly one drop site.  No leaks, nothing stuck in flight.
  EXPECT_EQ(sent, received + static_cast<std::uint64_t>(
                                 telemetry::total_drops(snap)));
  EXPECT_GT(inj.injected(FaultSite::kDmaCompletion), 0u);
  EXPECT_GT(count("dhl.batch.crc_drops"), 0u);
  EXPECT_GT(received, 0u);
  EXPECT_EQ(rt.in_flight(), 0u);
  EXPECT_EQ(pool.in_use(), 0u);
  if (kLedgerCompiled) {
    const LedgerAudit audit = rt.ledger().audit();
    if (!audit.clean()) {
      // Same teardown contract as test_stress_faults: dump the flight
      // recorder so the CI artifact shows the event context of the leak.
      telemetry::FlightRecorder& rec = rt.telemetry().recorder;
      const char* override_path = std::getenv("DHL_FLIGHT_DUMP");
      rec.set_auto_dump_path(override_path != nullptr && *override_path != '\0'
                                 ? override_path
                                 : "flight_dump_batch_fuzz.json");
      rec.log(telemetry::FlightComponent::kLedger, sim.now(),
              telemetry::FlightEventKind::kAuditFail, "batch_fuzz",
              /*a=*/0, /*b=*/static_cast<std::int32_t>(audit.live),
              /*c=*/audit.tracked);
      const std::string dumped = rec.dump_auto("ledger_audit_failure");
      ADD_FAILURE() << "ledger audit failed (flight recorder dumped to '"
                    << dumped << "'):\n"
                    << audit.to_string();
    }
  }
}

}  // namespace
}  // namespace dhl::runtime
