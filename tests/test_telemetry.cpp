// Unit tests for the telemetry subsystem: metrics registry, snapshots and
// exporters, trace sessions, and the periodic sampler.

#include <gtest/gtest.h>

#include <sstream>

#include "dhl/sim/simulator.hpp"
#include "dhl/telemetry/metrics.hpp"
#include "dhl/telemetry/sampler.hpp"
#include "dhl/telemetry/telemetry.hpp"
#include "dhl/telemetry/trace.hpp"

namespace dhl::telemetry {
namespace {

TEST(MetricsRegistry, GetOrCreateReturnsStablePointers) {
  MetricsRegistry reg;
  Counter* a = reg.counter("dhl.test.pkts");
  Counter* b = reg.counter("dhl.test.pkts");
  EXPECT_EQ(a, b);
  a->add(3);
  EXPECT_EQ(b->value(), 3u);
  EXPECT_EQ(reg.series_count(), 1u);
}

TEST(MetricsRegistry, LabelOrderDoesNotSplitSeries) {
  MetricsRegistry reg;
  Counter* a = reg.counter("dhl.test.pkts", {{"nf", "x"}, {"acc", "0"}});
  Counter* b = reg.counter("dhl.test.pkts", {{"acc", "0"}, {"nf", "x"}});
  EXPECT_EQ(a, b);
  EXPECT_EQ(reg.series_count(), 1u);
  // A different label value is a different series.
  Counter* c = reg.counter("dhl.test.pkts", {{"acc", "1"}, {"nf", "x"}});
  EXPECT_NE(a, c);
  EXPECT_EQ(reg.series_count(), 2u);
}

TEST(MetricsRegistry, KindMismatchThrows) {
  MetricsRegistry reg;
  reg.counter("dhl.test.value");
  EXPECT_THROW(reg.gauge("dhl.test.value"), std::logic_error);
  EXPECT_THROW(reg.histogram("dhl.test.value"), std::logic_error);
}

TEST(MetricsRegistry, SnapshotFreezesValues) {
  MetricsRegistry reg;
  Counter* c = reg.counter("dhl.test.pkts");
  Gauge* g = reg.gauge("dhl.test.depth");
  sim::LatencyHistogram* h = reg.histogram("dhl.test.lat");
  c->add(7);
  g->set(3.5);
  for (int i = 1; i <= 100; ++i) h->record(microseconds(i));

  const MetricsSnapshot snap = reg.snapshot(seconds(1));
  c->add(100);  // later updates must not leak into the snapshot
  g->set(0);

  EXPECT_EQ(snap.at, seconds(1));
  const MetricSample* cs = snap.find("dhl.test.pkts");
  ASSERT_NE(cs, nullptr);
  EXPECT_DOUBLE_EQ(cs->value, 7.0);
  const MetricSample* gs = snap.find("dhl.test.depth");
  ASSERT_NE(gs, nullptr);
  EXPECT_DOUBLE_EQ(gs->value, 3.5);
  const MetricSample* hs = snap.find("dhl.test.lat");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, 100u);
  EXPECT_EQ(hs->min, microseconds(1));
  EXPECT_EQ(hs->max, microseconds(100));
  EXPECT_NEAR(static_cast<double>(hs->p50),
              static_cast<double>(microseconds(50)), microseconds(50) * 0.05);
}

TEST(MetricsRegistry, FindMatchesLabelSubset) {
  MetricsRegistry reg;
  reg.counter("dhl.test.pkts", {{"nf", "a"}, {"acc", "0"}})->add(1);
  reg.counter("dhl.test.pkts", {{"nf", "b"}, {"acc", "0"}})->add(2);
  const MetricsSnapshot snap = reg.snapshot();
  const MetricSample* s = snap.find("dhl.test.pkts", {{"nf", "b"}});
  ASSERT_NE(s, nullptr);
  EXPECT_DOUBLE_EQ(s->value, 2.0);
  EXPECT_EQ(snap.find("dhl.test.pkts", {{"nf", "zzz"}}), nullptr);
}

TEST(MetricsRegistry, ResetZeroesEveryInstrument) {
  MetricsRegistry reg;
  Counter* c = reg.counter("dhl.test.pkts");
  sim::LatencyHistogram* h = reg.histogram("dhl.test.lat");
  c->add(5);
  h->record(microseconds(1));
  reg.reset();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(h->count(), 0u);
  EXPECT_EQ(reg.series_count(), 2u);  // series survive, values clear
}

TEST(MetricsSnapshot, PrometheusExposition) {
  MetricsRegistry reg;
  reg.counter("dhl.runtime.pkts_to_fpga", {{"nf", "ipsec"}})->add(42);
  reg.gauge("dhl.runtime.ibq_depth")->set(17);
  reg.histogram("dhl.dma.tx_latency")->record(microseconds(2));
  const std::string text = reg.snapshot().to_prometheus();
  // '.' becomes '_', counters get the _total suffix, labels survive.
  EXPECT_NE(text.find("dhl_runtime_pkts_to_fpga_total{nf=\"ipsec\"} 42"),
            std::string::npos);
  EXPECT_NE(text.find("dhl_runtime_ibq_depth 17"), std::string::npos);
  EXPECT_NE(text.find("dhl_dma_tx_latency{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(text.find("dhl_dma_tx_latency_count 1"), std::string::npos);
}

TEST(MetricsSnapshot, JsonContainsEverySeries) {
  MetricsRegistry reg;
  reg.counter("dhl.test.pkts", {{"nf", "a"}})->add(9);
  reg.histogram("dhl.test.lat")->record(microseconds(3));
  const std::string json = reg.snapshot(microseconds(5)).to_json();
  EXPECT_NE(json.find("\"at_ps\": 5000000"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"dhl.test.pkts\""), std::string::npos);
  EXPECT_NE(json.find("\"nf\": \"a\""), std::string::npos);
  EXPECT_NE(json.find("\"type\": \"histogram\""), std::string::npos);
}

TEST(TraceSession, DisabledSessionRecordsNothing) {
  TraceSession t;
  t.complete_span("lane", "span", "cat", 0, 100);
  t.instant("lane", "mark", "cat", 50);
  EXPECT_EQ(t.size(), 0u);
  t.enable();
  t.complete_span("lane", "span", "cat", 0, 100);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.count_named("span"), 1u);
}

TEST(TraceSession, NegativeDurationClampsToZero) {
  TraceSession t;
  t.enable();
  t.complete_span("lane", "span", "cat", 100, 40);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t.events()[0].duration, 0u);
}

TEST(TraceSession, ChromeJsonShape) {
  TraceSession t;
  t.enable();
  // 1.5 us span starting at 2 us, with one numeric and one string arg.
  t.complete_span("dhl.tx.socket0", "batch.pack", "runtime", microseconds(2),
                  microseconds(2) + nanoseconds(1500),
                  {{"records", "12"}, {"reason", "full"}});
  std::ostringstream os;
  t.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ns\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos);
  // Metadata names the process and the track.
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"dhl.tx.socket0\""), std::string::npos);
  // The span: complete phase, microsecond timestamps with ps precision.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":2.000000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":1.500000"), std::string::npos);
  // Numeric-looking arg values are emitted unquoted.
  EXPECT_NE(json.find("\"records\":12"), std::string::npos);
  EXPECT_NE(json.find("\"reason\":\"full\""), std::string::npos);
}

TEST(PeriodicSampler, SamplesEveryPeriod) {
  sim::Simulator sim;
  MetricsRegistry reg;
  Counter* c = reg.counter("dhl.test.ticks");
  // One count per 100 us of virtual time, sampled every 1 ms.
  for (int i = 1; i <= 50; ++i) {
    sim.schedule_at(microseconds(100) * i, [c] { c->add(1); });
  }
  PeriodicSampler sampler{sim, reg, milliseconds(1)};
  sampler.start();
  sim.run_until(milliseconds(5));
  sampler.stop();

  // t=0, 1ms, ..., 5ms inclusive.
  ASSERT_EQ(sampler.series().size(), 6u);
  EXPECT_EQ(sampler.series()[0].at, 0u);
  EXPECT_EQ(sampler.series()[3].at, milliseconds(3));
  // The counter advances 10 per sampled millisecond.
  EXPECT_DOUBLE_EQ(sampler.series()[0].find("dhl.test.ticks")->value, 0.0);
  EXPECT_DOUBLE_EQ(sampler.series()[3].find("dhl.test.ticks")->value, 30.0);
  const std::string json = sampler.to_json();
  EXPECT_NE(json.find("\"at_ps\": 3000000000"), std::string::npos);

  // After stop(), pending ticks are stale: no further samples accrue.
  sim.run_until(milliseconds(10));
  EXPECT_EQ(sampler.series().size(), 6u);
}

TEST(Telemetry, EnsureCreatesPrivateContext) {
  TelemetryPtr shared = make_telemetry();
  EXPECT_EQ(ensure(shared), shared);
  EXPECT_NE(ensure(nullptr), nullptr);
}

TEST(Telemetry, ExportSessionCombinesTraceAndMetrics) {
  Telemetry tel;
  tel.trace.enable();
  tel.trace.complete_span("lane", "batch.lifecycle", "runtime", 0,
                          microseconds(1));
  tel.metrics.counter("dhl.test.pkts")->add(4);
  std::ostringstream os;
  export_session(os, tel.trace, tel.metrics.snapshot(microseconds(1)));
  const std::string out = os.str();
  // One object, loadable as a Chrome trace, carrying the snapshot alongside.
  EXPECT_EQ(out.front(), '{');
  EXPECT_NE(out.find("\"traceEvents\":"), std::string::npos);
  EXPECT_NE(out.find("batch.lifecycle"), std::string::npos);
  EXPECT_NE(out.find("\"metrics\":"), std::string::npos);
  EXPECT_NE(out.find("dhl.test.pkts"), std::string::npos);
}

}  // namespace
}  // namespace dhl::telemetry
