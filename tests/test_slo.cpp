// SloWatchdog: empty windows, exactly-at-budget semantics, hysteresis, and
// breach-triggered flight-recorder dumps (DESIGN.md section 7).

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "dhl/telemetry/flight_recorder.hpp"
#include "dhl/telemetry/metrics.hpp"
#include "dhl/telemetry/slo.hpp"
#include "dhl/telemetry/stage_stats.hpp"

namespace dhl::telemetry {
namespace {

// Values below sim::LatencyHistogram::kSubCount land in exact unit bins, so
// a window of identical small samples has a *bit-exact* percentile -- which
// is what makes "exactly at budget" testable at all.
constexpr Picos kExact = 50;

class SloTest : public ::testing::Test {
 protected:
  MetricsSnapshot snap() { return registry_.snapshot(now_); }

  /// One sampler tick: evaluate against the current counters.
  void tick() {
    now_ += 1000;
    dog_.evaluate(now_, snap());
  }

  StageLatencyRecorder stages_;
  MetricsRegistry registry_;
  SloWatchdog dog_{stages_};
  Picos now_ = 0;
};

TEST_F(SloTest, EmptyWindowLeavesStateUnchanged) {
  SloSpec spec;
  spec.p99_ceiling = kExact;
  dog_.add_slo(spec);

  stages_.record_e2e(0, kExact);  // resolve + baseline on the first tick
  tick();
  // No deliveries, no drops: ten empty windows must not flip anything.
  for (int i = 0; i < 10; ++i) tick();
  const SloVerdict& v = dog_.verdicts()[0];
  EXPECT_FALSE(v.breached);
  EXPECT_FALSE(v.window_violation);
  EXPECT_EQ(v.violating_windows, 0u);
  EXPECT_EQ(dog_.evaluations(), 11u);
}

TEST_F(SloTest, ExactlyAtBudgetPasses) {
  SloSpec spec;
  spec.p99_ceiling = kExact;  // window p99 will be exactly kExact
  dog_.add_slo(spec);

  tick();  // baseline (histogram exists only after first record -> record first)
  for (int i = 0; i < 100; ++i) stages_.record_e2e(0, kExact);
  tick();  // baseline window (first tick after resolution only sets baseline)
  for (int i = 0; i < 100; ++i) stages_.record_e2e(0, kExact);
  tick();
  const SloVerdict& v = dog_.verdicts()[0];
  EXPECT_EQ(v.window_p99, kExact);
  EXPECT_FALSE(v.window_violation) << v.detail;
  EXPECT_FALSE(v.breached);
}

TEST_F(SloTest, OnePicosecondOverBudgetViolates) {
  SloSpec spec;
  spec.p99_ceiling = kExact - 1;
  dog_.add_slo(spec);

  for (int i = 0; i < 100; ++i) stages_.record_e2e(0, kExact);
  tick();  // resolves + baseline
  for (int i = 0; i < 100; ++i) stages_.record_e2e(0, kExact);
  tick();
  const SloVerdict& v = dog_.verdicts()[0];
  EXPECT_EQ(v.window_p99, kExact);
  EXPECT_TRUE(v.window_violation);
  EXPECT_NE(v.detail.find("p99"), std::string::npos);
}

TEST_F(SloTest, HysteresisEntersAfterTwoAndExitsAfterTwo) {
  SloSpec spec;
  spec.p99_ceiling = kExact - 1;
  dog_.add_slo(spec);
  dog_.set_hysteresis(2, 2);

  auto violating_window = [&] {
    for (int i = 0; i < 100; ++i) stages_.record_e2e(0, kExact);
    tick();
  };
  auto clean_window = [&] {
    for (int i = 0; i < 100; ++i) stages_.record_e2e(0, 1);
    tick();
  };

  clean_window();  // baseline
  violating_window();
  EXPECT_TRUE(dog_.verdicts()[0].window_violation);
  EXPECT_FALSE(dog_.verdicts()[0].breached) << "one window must not breach";
  violating_window();
  EXPECT_TRUE(dog_.verdicts()[0].breached) << "second consecutive window";
  EXPECT_EQ(dog_.verdicts()[0].breach_episodes, 1u);
  EXPECT_TRUE(dog_.any_breached());

  clean_window();
  EXPECT_TRUE(dog_.verdicts()[0].breached) << "one clean window must not heal";
  clean_window();
  EXPECT_FALSE(dog_.verdicts()[0].breached) << "second clean window heals";
  EXPECT_FALSE(dog_.any_breached());

  // A single violating window between clean ones never re-breaches.
  violating_window();
  clean_window();
  violating_window();
  EXPECT_FALSE(dog_.verdicts()[0].breached);
  EXPECT_EQ(dog_.verdicts()[0].breach_episodes, 1u);
}

TEST_F(SloTest, DropRateBudgetUsesStrictInequality) {
  SloSpec spec;
  spec.drop_rate_budget = 0.5;
  dog_.add_slo(spec);
  dog_.set_hysteresis(1, 1);
  Counter* drops = registry_.counter("dhl.runtime.obq_drops");

  stages_.record_e2e(0, 1);
  tick();  // baseline
  // Window: 1 delivered + 1 dropped = rate 0.5 -- exactly at budget, passes.
  stages_.record_e2e(0, 1);
  drops->add(1);
  tick();
  EXPECT_FALSE(dog_.verdicts()[0].window_violation)
      << dog_.verdicts()[0].detail;
  EXPECT_DOUBLE_EQ(dog_.verdicts()[0].window_drop_rate, 0.5);

  // Window: 1 delivered + 3 dropped = rate 0.75 > 0.5 -- violates.
  stages_.record_e2e(0, 1);
  drops->add(3);
  tick();
  EXPECT_TRUE(dog_.verdicts()[0].window_violation);
  EXPECT_TRUE(dog_.verdicts()[0].breached);
  EXPECT_NE(dog_.verdicts()[0].detail.find("drop_rate"), std::string::npos);
}

TEST_F(SloTest, QuotaDropsCountTowardTheAllNfDropRate) {
  // The all-NF budget counts every drop site, including a tenant's quota
  // drops (labelled by tenant, summed over tenants).
  SloSpec spec;
  spec.drop_rate_budget = 0.5;
  dog_.add_slo(spec);
  dog_.set_hysteresis(1, 1);
  Counter* quota =
      registry_.counter("dhl.tenant.quota_drops", {{"tenant", "bravo"}});

  stages_.record_e2e(0, 1);
  tick();  // baseline
  // Window: 1 delivered + 3 quota drops = rate 0.75 > 0.5 -- violates.
  stages_.record_e2e(0, 1);
  quota->add(3);
  tick();
  EXPECT_DOUBLE_EQ(dog_.verdicts()[0].window_drop_rate, 0.75);
  EXPECT_TRUE(dog_.verdicts()[0].window_violation);
}

TEST_F(SloTest, PerNfSpecResolvesLazilyByName) {
  stages_.set_nf_name(3, "ipsec");
  SloSpec spec;
  spec.nf = "ipsec";
  spec.p99_ceiling = kExact - 1;
  dog_.add_slo(spec);
  dog_.set_hysteresis(1, 1);

  tick();  // NF has no e2e histogram yet: unresolved, state unchanged
  EXPECT_FALSE(dog_.verdicts()[0].window_violation);

  for (int i = 0; i < 10; ++i) stages_.record_e2e(3, kExact);
  tick();  // resolves now, takes baseline
  for (int i = 0; i < 10; ++i) stages_.record_e2e(3, kExact);
  tick();
  EXPECT_TRUE(dog_.verdicts()[0].window_violation);
  EXPECT_TRUE(dog_.verdicts()[0].breached);
  // Another NF's traffic must not leak into this spec's window.
  EXPECT_EQ(dog_.verdicts()[0].window_count, 10u);
}

TEST_F(SloTest, BreachLogsAndDumpsFlightRecorder) {
  FlightRecorder rec;
  const std::string path =
      ::testing::TempDir() + "slo_breach_dump_test.json";
  std::remove(path.c_str());
  rec.set_auto_dump_path(path);
  SloWatchdog dog{stages_, &rec};
  SloSpec spec;
  spec.p99_ceiling = kExact - 1;
  dog.add_slo(spec);
  dog.set_hysteresis(1, 1);

  for (int i = 0; i < 10; ++i) stages_.record_e2e(0, kExact);
  dog.evaluate(1000, snap());  // baseline
  for (int i = 0; i < 10; ++i) stages_.record_e2e(0, kExact);
  dog.evaluate(2000, snap());

  ASSERT_TRUE(dog.verdicts()[0].breached);
  EXPECT_EQ(rec.dumps_written(), 1u);
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr) << "breach must write the dump artifact";
  std::fclose(f);
  const auto events = rec.recent();
  ASSERT_FALSE(events.empty());
  bool saw_breach = false;
  for (const auto& e : events) {
    if (e.kind == FlightEventKind::kSloBreach) saw_breach = true;
  }
  EXPECT_TRUE(saw_breach);
  std::remove(path.c_str());
}

TEST_F(SloTest, VerdictsJsonIsMachineReadable) {
  SloSpec spec;
  spec.p99_ceiling = kExact;
  dog_.add_slo(spec);
  const std::string json = dog_.verdicts_json();
  EXPECT_NE(json.find("\"nf\": \"*\""), std::string::npos);
  EXPECT_NE(json.find("\"breached\": false"), std::string::npos);
  EXPECT_NE(json.find("\"p99_ceiling_ps\": 50"), std::string::npos);
}

}  // namespace
}  // namespace dhl::telemetry
