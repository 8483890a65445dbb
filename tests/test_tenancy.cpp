// Tenancy: per-tenant admission, quotas, counted rejections, tenant-scoped
// SLO verdicts and per-tenant conservation (DESIGN.md section 8), which the
// registry checks from its counters in every build type.
//
// The ISSUE acceptance property lives in IsolationUnderSaturation: tenant
// bravo saturating its outstanding-bytes budget must not push tenant alpha
// past alpha's SLO -- bravo's excess bounces off admission (counted), it
// never queues behind alpha's traffic.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dhl/accel/catalog.hpp"
#include "dhl/fpga/batch.hpp"
#include "dhl/netio/mempool.hpp"
#include "dhl/runtime/api.hpp"
#include "dhl/runtime/runtime.hpp"
#include "dhl/telemetry/slo.hpp"

namespace dhl::runtime {
namespace {

using fpga::FpgaDevice;
using netio::Mbuf;
using netio::MbufPool;

std::string describe(const TenantAudit& t) {
  return t.tenant + ": admitted=" + std::to_string(t.admitted) +
         " delivered=" + std::to_string(t.delivered) +
         " dropped=" + std::to_string(t.dropped) +
         " live=" + std::to_string(t.live());
}

struct Harness {
  sim::Simulator sim;
  telemetry::TelemetryPtr tel = telemetry::make_telemetry();
  fpga::FpgaDeviceConfig fpga_cfg;
  std::unique_ptr<FpgaDevice> fpga;
  std::unique_ptr<DhlRuntime> rt;
  MbufPool pool{"tenancy", 8192, 2048, 0};

  explicit Harness(RuntimeConfig cfg = {}) {
    fpga_cfg.telemetry = tel;
    cfg.telemetry = tel;
    fpga = std::make_unique<FpgaDevice>(sim, fpga_cfg);
    rt = std::make_unique<DhlRuntime>(sim, cfg,
                                      accel::standard_module_database(nullptr),
                                      std::vector<FpgaDevice*>{fpga.get()});
  }

  void wait_ready(const AccHandle& h) {
    sim.run_until(sim.now() + milliseconds(40));
    ASSERT_TRUE(rt->acc_ready(h));
  }

  Mbuf* make_pkt(netio::NfId nf, netio::AccId acc, std::uint32_t len,
                 std::uint8_t fill) {
    Mbuf* m = pool.alloc();
    std::vector<std::uint8_t> data(len, fill);
    m->assign(data);
    m->set_nf_id(nf);
    m->set_acc_id(acc);
    m->set_rx_timestamp(sim.now() == 0 ? 1 : sim.now());
    return m;
  }

  /// Send a burst through the tenant-aware ingest; refused packets go back
  /// to the pool (the caller keeps ownership, which here means releasing).
  std::size_t send_burst(netio::NfId nf, netio::AccId acc, std::size_t count,
                         std::uint32_t len) {
    std::vector<Mbuf*> pkts;
    pkts.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      pkts.push_back(make_pkt(nf, acc, len, static_cast<std::uint8_t>(nf)));
    }
    const std::size_t sent = rt->send_packets(nf, pkts.data(), pkts.size());
    for (std::size_t i = sent; i < pkts.size(); ++i) pkts[i]->release();
    return sent;
  }

  std::size_t drain(netio::NfId nf) {
    Mbuf* out[64];
    std::size_t total = 0;
    for (;;) {
      const std::size_t got =
          DHL_receive_packets(rt->get_private_obq(nf), out, 64);
      if (got == 0) break;
      for (std::size_t i = 0; i < got; ++i) out[i]->release();
      total += got;
    }
    return total;
  }

  std::uint64_t counter(const std::string& name, const std::string& tenant) {
    return static_cast<std::uint64_t>(
        tel->metrics.snapshot(sim.now()).sum(name, {{"tenant", tenant}}));
  }

  TenantAudit audit(const std::string& tenant) {
    return rt->tenants().by_name(tenant)->audit();
  }
};

TEST(Tenancy, DefaultTenantAlwaysExistsUnlimited) {
  Harness h;
  ASSERT_EQ(h.rt->tenants().count(), 1u);
  const TenantContext* def = h.rt->tenants().context(kDefaultTenant);
  ASSERT_NE(def, nullptr);
  EXPECT_EQ(def->name, "default");
  EXPECT_EQ(def->quota.outstanding_bytes_cap, 0u);
  // Unbound NFs land on the default tenant.
  const netio::NfId nf = h.rt->register_nf("plain", 0);
  EXPECT_EQ(h.rt->tenants().tenant_of(nf), kDefaultTenant);
}

TEST(Tenancy, RegisterTenantBindsNfs) {
  Harness h;
  const TenantId a = h.rt->register_tenant("alpha", {});
  ASSERT_NE(a, kInvalidTenant);
  EXPECT_EQ(h.rt->register_tenant("alpha", {}), kInvalidTenant)
      << "duplicate name must be refused";
  const netio::NfId nf = DHL_register(*h.rt, "alpha.worker", 0, a);
  EXPECT_EQ(h.rt->tenants().tenant_of(nf), a);
  EXPECT_EQ(h.rt->tenants().tenant_name(a), "alpha");
}

TEST(Tenancy, RegistryAdmitsAndUnwindsAgainstCap) {
  telemetry::MetricsRegistry metrics;
  TenantRegistry reg{metrics};
  const TenantId id = reg.create("capped", {.outstanding_bytes_cap = 1000});
  ASSERT_NE(id, kInvalidTenant);
  TenantContext& t = *reg.context(id);
  EXPECT_TRUE(reg.try_admit(t, 600));
  EXPECT_FALSE(reg.try_admit(t, 600)) << "would exceed the cap";
  EXPECT_EQ(t.rejected_pkts->value(), 1u);
  EXPECT_TRUE(reg.try_admit(t, 400)) << "exactly at the cap fits";
  reg.unwind_admit(t, 400);  // ring-full refusal: bytes back, counted
  EXPECT_EQ(t.outstanding_bytes(), 600u);
  EXPECT_EQ(t.rejected_pkts->value(), 2u);
  EXPECT_FALSE(reg.drained());
}

TEST(Tenancy, RegistryAuditBalancesFromCounters) {
  telemetry::MetricsRegistry metrics;
  TenantRegistry reg{metrics};
  const TenantId id = reg.create("busy", {});
  ASSERT_NE(reg.create("idle", {}), kInvalidTenant);
  TenantContext& t = *reg.context(id);
  t.admitted_pkts->add(3);
  t.delivered_pkts->add(2);
  t.dropped_pkts->add(1);
  std::vector<TenantAudit> rows = reg.audit();
  ASSERT_EQ(rows.size(), 1u) << "tenants that counted nothing have no row";
  EXPECT_EQ(rows[0].tenant, "busy");
  EXPECT_TRUE(rows[0].clean()) << describe(rows[0]);
  EXPECT_EQ(rows[0].live(), 0);

  t.admitted_pkts->add(1);  // admitted, never terminated: a leak
  EXPECT_FALSE(t.audit().clean());
  EXPECT_EQ(t.audit().live(), 1);
  t.delivered_pkts->add(2);  // one terminal too many
  EXPECT_FALSE(t.audit().clean());
  EXPECT_EQ(t.audit().live(), -1);
}

TEST(Tenancy, AdmissionStampsTheSendingNf) {
  // Admission is the only way into an IBQ and it names the NF: a packet
  // carrying another NF's tag is admitted, charged, debited and delivered
  // as the sender's, so both tenants drain back to zero.
  Harness h;
  const TenantId a = h.rt->register_tenant(
      "alpha", {.outstanding_bytes_cap = 64 * 1024});
  const TenantId b = h.rt->register_tenant("bravo", {});
  const netio::NfId nf_a = DHL_register(*h.rt, "alpha.nf", 0, a);
  const netio::NfId nf_b = DHL_register(*h.rt, "bravo.nf", 0, b);
  const AccHandle acc = h.rt->search_by_name("loopback", 0);
  h.wait_ready(acc);
  h.rt->start();

  Mbuf* m = h.make_pkt(nf_b, acc.acc_id, 256, 0x5a);  // bravo's tag...
  ASSERT_EQ(h.rt->send_packets(nf_a, &m, 1), 1u);     // ...sent by alpha
  EXPECT_EQ(m->nf_id(), nf_a);
  h.sim.run_until(h.sim.now() + milliseconds(1));

  EXPECT_EQ(h.drain(nf_a), 1u);
  EXPECT_EQ(h.drain(nf_b), 0u);
  EXPECT_EQ(h.counter("dhl.tenant.delivered_pkts", "alpha"), 1u);
  EXPECT_EQ(h.counter("dhl.tenant.delivered_pkts", "bravo"), 0u);
  EXPECT_TRUE(h.rt->tenants().drained());
}

TEST(Tenancy, BatchBudgetChargesAndRetires) {
  telemetry::MetricsRegistry metrics;
  TenantRegistry reg{metrics};
  const TenantId id = reg.create("one-batch", {.max_batches_in_flight = 1});
  ASSERT_NE(id, kInvalidTenant);
  fpga::DmaBatch batch{/*acc_id=*/0};
  EXPECT_TRUE(reg.can_flush(id));
  reg.charge_batch(id, batch);
  EXPECT_TRUE(batch.tenant_charged);
  EXPECT_FALSE(reg.can_flush(id));
  reg.note_flush_deferred(id);
  EXPECT_EQ(reg.context(id)->flush_deferrals->value(), 1u);
  reg.retire_batch(batch);
  EXPECT_TRUE(reg.can_flush(id));
  reg.retire_batch(batch);  // idempotent: a second retire must not underflow
  EXPECT_EQ(reg.context(id)->batches_in_flight, 0u);
  EXPECT_TRUE(reg.drained());
}

TEST(Tenancy, QuotaRejectsOverBurstWithCountedMetric) {
  Harness h;
  // Cap fits exactly 16 x 256 B; the 64-packet burst must be cut at 16.
  const TenantId b =
      h.rt->register_tenant("bravo", {.outstanding_bytes_cap = 4096});
  const netio::NfId nf = h.rt->register_nf("bravo.worker", 0, b);
  const AccHandle acc = h.rt->search_by_name("loopback", 0);
  ASSERT_TRUE(acc.valid());
  h.wait_ready(acc);
  h.rt->start();

  const std::size_t sent = h.send_burst(nf, acc.acc_id, 64, 256);
  EXPECT_EQ(sent, 16u);
  EXPECT_EQ(h.counter("dhl.tenant.rejected_pkts", "bravo"), 48u);
  EXPECT_EQ(h.counter("dhl.tenant.admitted_pkts", "bravo"), 16u);

  // Once the pipeline drains the outstanding bytes, admission reopens.
  h.sim.run_until(h.sim.now() + milliseconds(5));
  EXPECT_EQ(h.drain(nf), 16u);
  EXPECT_GT(h.send_burst(nf, acc.acc_id, 8, 256), 0u);
  h.sim.run_until(h.sim.now() + milliseconds(5));
  h.drain(nf);
}

TEST(Tenancy, SecondTenantAdmittedWhileFirstSaturated) {
  Harness h;
  const TenantId b =
      h.rt->register_tenant("bravo", {.outstanding_bytes_cap = 2048});
  const netio::NfId bravo_nf = h.rt->register_nf("bravo.worker", 0, b);
  const AccHandle acc = h.rt->search_by_name("loopback", 0);
  ASSERT_TRUE(acc.valid());
  h.wait_ready(acc);
  h.rt->start();

  // Saturate bravo: its next sends are rejected at admission.
  ASSERT_EQ(h.send_burst(bravo_nf, acc.acc_id, 8, 256), 8u);
  EXPECT_EQ(h.send_burst(bravo_nf, acc.acc_id, 8, 256), 0u);

  // A second tenant registered *now* is admitted and can push traffic.
  const TenantId a = h.rt->register_tenant("alpha", {});
  ASSERT_NE(a, kInvalidTenant);
  const netio::NfId alpha_nf = h.rt->register_nf("alpha.worker", 0, a);
  EXPECT_EQ(h.send_burst(alpha_nf, acc.acc_id, 32, 256), 32u);
  EXPECT_EQ(h.counter("dhl.tenant.rejected_pkts", "alpha"), 0u);

  h.sim.run_until(h.sim.now() + milliseconds(5));
  EXPECT_EQ(h.drain(alpha_nf), 32u);
  EXPECT_EQ(h.drain(bravo_nf), 8u);
}

// The ISSUE acceptance test: two tenants on one runtime, bravo saturating
// its budget every round, alpha's per-tenant SLO verdict must stay clean
// while bravo's rejections are counted.
TEST(Tenancy, IsolationUnderSaturation) {
  Harness h;
  const TenantId a = h.rt->register_tenant("alpha", {});
  const TenantId b =
      h.rt->register_tenant("bravo", {.outstanding_bytes_cap = 8192,
                                      .max_batches_in_flight = 2});
  const netio::NfId alpha_nf = h.rt->register_nf("alpha.worker", 0, a);
  const netio::NfId bravo_nf = h.rt->register_nf("bravo.worker", 0, b);
  const AccHandle acc = h.rt->search_by_name("loopback", 0);
  ASSERT_TRUE(acc.valid());
  h.wait_ready(acc);
  h.rt->start();

  telemetry::SloWatchdog dog{h.tel->stages};
  telemetry::SloSpec alpha_slo;
  alpha_slo.tenant = "alpha";
  alpha_slo.p99_ceiling = milliseconds(1);  // generous vs ~us pipe latency
  alpha_slo.drop_rate_budget = 0.0;         // alpha must lose nothing
  dog.add_slo(alpha_slo);

  std::size_t alpha_sent = 0;
  std::size_t alpha_got = 0;
  std::uint64_t bravo_rejected = 0;
  for (int round = 0; round < 40; ++round) {
    alpha_sent += h.send_burst(alpha_nf, acc.acc_id, 16, 256);
    // Bravo floods 4x its byte budget every round; the excess must bounce.
    const std::size_t bravo_sent = h.send_burst(bravo_nf, acc.acc_id, 128, 256);
    EXPECT_LE(bravo_sent, 32u) << "cap admits at most 8192/256 packets";
    h.sim.run_until(h.sim.now() + microseconds(500));
    alpha_got += h.drain(alpha_nf);
    h.drain(bravo_nf);
    dog.evaluate(h.sim.now(), h.tel->metrics.snapshot(h.sim.now()));
  }
  h.sim.run_until(h.sim.now() + milliseconds(10));
  alpha_got += h.drain(alpha_nf);
  h.drain(bravo_nf);
  dog.evaluate(h.sim.now(), h.tel->metrics.snapshot(h.sim.now()));

  bravo_rejected = h.counter("dhl.tenant.rejected_pkts", "bravo");
  EXPECT_GT(bravo_rejected, 0u) << "bravo must have been admission-limited";
  EXPECT_EQ(h.counter("dhl.tenant.rejected_pkts", "alpha"), 0u);
  EXPECT_EQ(alpha_got, alpha_sent) << "alpha loses nothing under bravo's flood";

  ASSERT_EQ(dog.verdicts().size(), 1u);
  const telemetry::SloVerdict& v = dog.verdicts()[0];
  EXPECT_EQ(v.spec.tenant, "alpha");
  EXPECT_FALSE(v.breached) << v.detail;
  EXPECT_EQ(v.breach_episodes, 0u);
  EXPECT_GT(v.window_count, 0u) << "the tenant window must have seen samples";

  // Per-tenant conservation at teardown, from the registry's counters.
  const TenantAudit ta = h.audit("alpha");
  const TenantAudit tb = h.audit("bravo");
  EXPECT_TRUE(ta.clean()) << describe(ta);
  EXPECT_TRUE(tb.clean()) << describe(tb);
  EXPECT_EQ(ta.delivered, alpha_sent);
  EXPECT_GT(tb.admitted, 0u);
  EXPECT_TRUE(h.rt->tenants().drained());
}

// Live reconfiguration: replicate and unload a tenant's hardware function
// while its traffic is in flight; the tenant's conservation must still hold.
TEST(Tenancy, LiveReconfigMidStreamKeepsLedgerClean) {
  Harness h;
  const TenantId a = h.rt->register_tenant("alpha", {});
  const netio::NfId nf = h.rt->register_nf("alpha.worker", 0, a);
  const AccHandle acc = h.rt->search_by_name("loopback", 0);
  ASSERT_TRUE(acc.valid());
  h.wait_ready(acc);
  h.rt->start();

  std::size_t sent = 0;
  std::size_t got = 0;
  for (int round = 0; round < 30; ++round) {
    sent += h.send_burst(nf, acc.acc_id, 16, 256);
    if (round == 10) {
      // Scale out mid-stream: a second PR region for the hot function.
      EXPECT_GE(h.rt->replicate("loopback", 2), 1u);
    }
    if (round == 20) {
      // Scale back in mid-stream.  In-flight batches carry generation tags,
      // so shrinking the table cannot misroute them.
      h.rt->unload_function("loopback");
      const AccHandle again = h.rt->search_by_name("loopback", 0);
      ASSERT_TRUE(again.valid());
    }
    h.sim.run_until(h.sim.now() + microseconds(500));
    got += h.drain(nf);
  }
  h.sim.run_until(h.sim.now() + milliseconds(20));
  got += h.drain(nf);

  EXPECT_GT(got, 0u);
  const TenantAudit ta = h.audit("alpha");
  EXPECT_TRUE(ta.clean()) << describe(ta);
  EXPECT_EQ(ta.admitted, sent);
  EXPECT_EQ(ta.delivered, got);
  // The unload drops the packets parked in open batches (unready site): the
  // check above balances only if each of them reached the tenant's count.
  EXPECT_GT(ta.dropped, 0u);
  EXPECT_TRUE(h.rt->tenants().drained());
}

TEST(Tenancy, ToJsonCarriesPerTenantRows) {
  Harness h;
  h.rt->register_tenant("alpha", {});
  h.rt->register_tenant("bravo", {.outstanding_bytes_cap = 1024});
  const std::string json = h.rt->tenants().to_json();
  EXPECT_NE(json.find("\"tenant\": \"alpha\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"tenant\": \"bravo\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"outstanding_bytes\""), std::string::npos);
  EXPECT_NE(json.find("\"rejected\""), std::string::npos);
}

}  // namespace
}  // namespace dhl::runtime
