// Windowed telemetry (DESIGN.md §5g): the Timeline delta cursor, the SLO
// rule grammar + alert state machine, the telemetry wire codec, and the
// end-to-end scrape path through the testbed.
#include <gtest/gtest.h>

#include <sstream>

#include "obs/export.hpp"
#include "obs/slo.hpp"
#include "obs/timeline.hpp"
#include "testbed/experiment.hpp"
#include "testbed/telemetry.hpp"
#include "workload/real_apps.hpp"

namespace ape::obs {
namespace {

// ------------------------------------------------------------- Timeline

TEST(Timeline, DisabledCaptureReturnsNull) {
  MetricsRegistry m;
  Timeline timeline;
  EXPECT_EQ(timeline.capture(m, sim::Time{sim::seconds(30.0)}), nullptr);
  EXPECT_TRUE(timeline.windows().empty());
}

TEST(Timeline, CaptureRecordsCounterDeltasPerWindow) {
  MetricsRegistry m;
  Timeline timeline;
  timeline.set_enabled(true);

  m.counter("hits").add(5);
  const auto* w0 = timeline.capture(m, sim::Time{sim::seconds(30.0)});
  ASSERT_NE(w0, nullptr);
  EXPECT_EQ(w0->index, 0u);
  EXPECT_EQ(w0->start, sim::Time{});
  EXPECT_EQ(w0->end, sim::Time{sim::seconds(30.0)});
  EXPECT_EQ(w0->counter_deltas.at("hits"), 5);

  m.counter("hits").add(2);
  m.counter("misses").add(1);
  const auto* w1 = timeline.capture(m, sim::Time{sim::seconds(60.0)});
  ASSERT_NE(w1, nullptr);
  EXPECT_EQ(w1->start, sim::Time{sim::seconds(30.0)});
  EXPECT_EQ(w1->counter_deltas.at("hits"), 2);
  EXPECT_EQ(w1->counter_deltas.at("misses"), 1);

  EXPECT_TRUE(timeline.reconcile(m).empty());
}

TEST(Timeline, ZeroDeltasAreOmitted) {
  MetricsRegistry m;
  Timeline timeline;
  timeline.set_enabled(true);

  m.counter("hits").add(3);
  timeline.capture(m, sim::Time{sim::seconds(30.0)});
  // No change in the second window: the counter must not appear at all.
  const auto* w1 = timeline.capture(m, sim::Time{sim::seconds(60.0)});
  EXPECT_EQ(w1->counter_deltas.count("hits"), 0u);
  EXPECT_TRUE(timeline.reconcile(m).empty());
}

TEST(Timeline, SetStyleCountersMayShrink) {
  MetricsRegistry m;
  Timeline timeline;
  timeline.set_enabled(true);

  m.counter("cache.entries").set(10);
  timeline.capture(m, sim::Time{sim::seconds(30.0)});
  m.counter("cache.entries").set(4);
  const auto* w1 = timeline.capture(m, sim::Time{sim::seconds(60.0)});
  EXPECT_EQ(w1->counter_deltas.at("cache.entries"), -6);
  // Deltas still sum to the end-of-run value: 10 + (-6) == 4.
  EXPECT_TRUE(timeline.reconcile(m).empty());
}

TEST(Timeline, HistogramSamplesLandInExactlyOneWindow) {
  MetricsRegistry m;
  Timeline timeline;
  timeline.set_enabled(true);

  auto& h = m.histogram("lat_ms", "ms");
  h.record(1.0);
  h.record(3.0);
  const auto* w0 = timeline.capture(m, sim::Time{sim::seconds(30.0)});
  ASSERT_EQ(w0->histograms.count("lat_ms"), 1u);
  EXPECT_EQ(w0->histograms.at("lat_ms").count, 2u);
  EXPECT_DOUBLE_EQ(w0->histograms.at("lat_ms").mean, 2.0);
  EXPECT_DOUBLE_EQ(w0->histograms.at("lat_ms").min, 1.0);
  EXPECT_DOUBLE_EQ(w0->histograms.at("lat_ms").max, 3.0);
  EXPECT_EQ(w0->histograms.at("lat_ms").unit, "ms");

  // Window 1 sees only the new sample — not the three cumulative ones.
  h.record(100.0);
  const auto* w1 = timeline.capture(m, sim::Time{sim::seconds(60.0)});
  ASSERT_EQ(w1->histograms.count("lat_ms"), 1u);
  EXPECT_EQ(w1->histograms.at("lat_ms").count, 1u);
  EXPECT_DOUBLE_EQ(w1->histograms.at("lat_ms").p50, 100.0);

  // Window 2 has no new samples — the histogram is absent.
  const auto* w2 = timeline.capture(m, sim::Time{sim::seconds(90.0)});
  EXPECT_EQ(w2->histograms.count("lat_ms"), 0u);

  EXPECT_TRUE(timeline.reconcile(m).empty());
}

TEST(Timeline, GaugesCarryLastValue) {
  MetricsRegistry m;
  Timeline timeline;
  timeline.set_enabled(true);

  m.gauge("ratio").set(0.25);
  const auto* w0 = timeline.capture(m, sim::Time{sim::seconds(30.0)});
  EXPECT_DOUBLE_EQ(w0->gauges.at("ratio"), 0.25);
  m.gauge("ratio").set(0.75);
  const auto* w1 = timeline.capture(m, sim::Time{sim::seconds(60.0)});
  EXPECT_DOUBLE_EQ(w1->gauges.at("ratio"), 0.75);
}

TEST(Timeline, ReconcileDetectsPostCaptureMutation) {
  MetricsRegistry m;
  Timeline timeline;
  timeline.set_enabled(true);

  m.counter("hits").add(5);
  timeline.capture(m, sim::Time{sim::seconds(30.0)});
  // Mutating after the last capture breaks the partition — reconcile must
  // say so (the fix is to flush: capture once more).
  m.counter("hits").add(1);
  EXPECT_FALSE(timeline.reconcile(m).empty());
  timeline.capture(m, sim::Time{sim::seconds(60.0)});
  EXPECT_TRUE(timeline.reconcile(m).empty());
}

TEST(Timeline, CsvExportEmitsPerWindowRows) {
  MetricsRegistry m;
  Timeline timeline;
  timeline.set_enabled(true);
  m.counter("hits").add(2);
  m.gauge("ratio").set(0.5);
  m.histogram("lat_ms", "ms").record(7.0);
  timeline.capture(m, sim::Time{sim::seconds(30.0)});

  std::ostringstream out;
  write_timeseries_csv(out, timeline);
  const std::string csv = out.str();
  EXPECT_NE(csv.find("window,start_us,end_us,kind,name,field,value"), std::string::npos);
  EXPECT_NE(csv.find("counter,hits,delta,2"), std::string::npos);
  EXPECT_NE(csv.find("gauge,ratio,value,0.5"), std::string::npos);
  EXPECT_NE(csv.find("histogram,lat_ms,count,1"), std::string::npos);
}

// ------------------------------------------------------------ SLO rules

TEST(SloParse, FullGrammarRoundTrips) {
  const auto rule =
      parse_slo_rule("cache-warmup: ap.cache.hit_ratio >= 0.6 over 5 windows resolve 2");
  ASSERT_TRUE(rule.ok());
  EXPECT_EQ(rule.value().name, "cache-warmup");
  EXPECT_EQ(rule.value().metric, "ap.cache.hit_ratio");
  EXPECT_EQ(rule.value().field, SloField::Value);
  EXPECT_EQ(rule.value().op, SloOp::Ge);
  EXPECT_DOUBLE_EQ(rule.value().threshold, 0.6);
  EXPECT_EQ(rule.value().for_windows, 5u);
  EXPECT_EQ(rule.value().resolve_windows, 2u);

  const auto again = parse_slo_rule(rule.value().text());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().text(), rule.value().text());
}

TEST(SloParse, HistogramFieldAndUnitSuffix) {
  const auto rule = parse_slo_rule("client.total_ms p99 <= 40ms over 2 windows");
  ASSERT_TRUE(rule.ok());
  EXPECT_EQ(rule.value().field, SloField::P99);
  EXPECT_EQ(rule.value().op, SloOp::Le);
  EXPECT_DOUBLE_EQ(rule.value().threshold, 40.0);
  // Default name identifies metric + field.
  EXPECT_EQ(rule.value().name, "client.total_ms.p99");
}

TEST(SloParse, RejectsMalformedRules) {
  EXPECT_FALSE(parse_slo_rule("").ok());
  EXPECT_FALSE(parse_slo_rule("metric >= ").ok());
  EXPECT_FALSE(parse_slo_rule("metric about 0.5 over 1 windows").ok());
  EXPECT_FALSE(parse_slo_rule("metric >= abc over 1 windows").ok());
  EXPECT_FALSE(parse_slo_rule("metric >= 1 over 0 windows").ok());
  EXPECT_FALSE(parse_slo_rule("metric >= 1 over 1 windows trailing junk").ok());
}

TimelineWindow window_with(std::uint64_t index, const std::string& gauge, double value) {
  TimelineWindow w;
  w.index = index;
  w.gauges[gauge] = value;
  return w;
}

TEST(SloEvaluator, PendingThenFiringThenResolved) {
  SloEvaluator slo;
  slo.add_rule(parse_slo_rule("warm: ratio >= 0.6 over 2 windows resolve 2").value());

  slo.observe(window_with(0, "ratio", 0.3));  // violation 1 -> Pending
  EXPECT_EQ(slo.state("warm"), AlertState::Pending);
  slo.observe(window_with(1, "ratio", 0.4));  // violation 2 -> Firing
  EXPECT_EQ(slo.state("warm"), AlertState::Firing);
  EXPECT_EQ(slo.fired(), 1u);
  slo.observe(window_with(2, "ratio", 0.9));  // hold 1 — still firing
  EXPECT_EQ(slo.state("warm"), AlertState::Firing);
  slo.observe(window_with(3, "ratio", 0.9));  // hold 2 -> resolved
  EXPECT_EQ(slo.state("warm"), AlertState::Inactive);
  EXPECT_EQ(slo.resolved(), 1u);

  // Transition log: Inactive->Pending->Firing->Inactive, windows 0,1,3.
  ASSERT_EQ(slo.transitions().size(), 3u);
  EXPECT_EQ(slo.transitions()[0].window, 0u);
  EXPECT_EQ(slo.transitions()[1].to, AlertState::Firing);
  EXPECT_EQ(slo.transitions()[2].window, 3u);
}

TEST(SloEvaluator, SingleWindowRuleFiresImmediately) {
  SloEvaluator slo;
  slo.add_rule(parse_slo_rule("ratio >= 0.6 over 1 windows").value());
  slo.observe(window_with(0, "ratio", 0.1));
  EXPECT_EQ(slo.state("ratio"), AlertState::Firing);
  ASSERT_EQ(slo.transitions().size(), 1u);
  EXPECT_EQ(slo.transitions()[0].from, AlertState::Inactive);
  EXPECT_EQ(slo.transitions()[0].to, AlertState::Firing);
}

TEST(SloEvaluator, PendingRecoversWithoutFiring) {
  SloEvaluator slo;
  slo.add_rule(parse_slo_rule("warm: ratio >= 0.6 over 3 windows").value());
  slo.observe(window_with(0, "ratio", 0.1));
  EXPECT_EQ(slo.state("warm"), AlertState::Pending);
  slo.observe(window_with(1, "ratio", 0.8));
  EXPECT_EQ(slo.state("warm"), AlertState::Inactive);
  EXPECT_EQ(slo.fired(), 0u);
  // A fresh violation streak starts from zero again.
  slo.observe(window_with(2, "ratio", 0.1));
  slo.observe(window_with(3, "ratio", 0.1));
  EXPECT_EQ(slo.state("warm"), AlertState::Pending);
}

TEST(SloEvaluator, MissingMetricFreezesStreaks) {
  SloEvaluator slo;
  slo.add_rule(parse_slo_rule("warm: ratio >= 0.6 over 2 windows").value());
  slo.observe(window_with(0, "ratio", 0.1));  // violation 1
  TimelineWindow empty;
  empty.index = 1;
  slo.observe(empty);  // no data: neither violation nor recovery
  EXPECT_EQ(slo.state("warm"), AlertState::Pending);
  slo.observe(window_with(2, "ratio", 0.1));  // violation 2 -> Firing
  EXPECT_EQ(slo.state("warm"), AlertState::Firing);
}

TEST(SloEvaluator, HistogramFieldRuleReadsWindowSummary) {
  SloEvaluator slo;
  slo.add_rule(parse_slo_rule("tail: lat_ms p99 <= 40 over 1 windows").value());
  TimelineWindow w;
  w.index = 0;
  w.histograms["lat_ms"].p99 = 120.0;
  slo.observe(w);
  EXPECT_EQ(slo.state("tail"), AlertState::Firing);
  EXPECT_DOUBLE_EQ(slo.transitions()[0].value, 120.0);
}

}  // namespace
}  // namespace ape::obs

namespace ape::testbed {
namespace {

// -------------------------------------------------------- wire protocol

obs::TimelineWindow sample_window() {
  obs::TimelineWindow w;
  w.index = 3;
  w.start = sim::Time{sim::seconds(90.0)};
  w.end = sim::Time{sim::seconds(120.0)};
  w.counter_deltas["hits"] = 17;
  w.counter_deltas["cache.entries"] = -4;  // set-style shrink
  w.gauges["ratio"] = 0.6180339887498949;
  auto& h = w.histograms["lat_ms"];
  h.unit = "ms";
  h.count = 3;
  h.sum = 21.5;
  h.mean = 21.5 / 3.0;
  h.min = 1.25;
  h.max = 16.125;
  h.p50 = 4.125;
  h.p95 = 15.0;
  h.p99 = 16.0;
  return w;
}

TEST(TelemetryCodec, RoundTripIsExact) {
  TelemetryReport report;
  report.from = 3;
  report.total = 5;
  report.windows.push_back(sample_window());

  const auto decoded = decode_telemetry_report(encode_telemetry_report(report));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().from, 3u);
  EXPECT_EQ(decoded.value().total, 5u);
  ASSERT_EQ(decoded.value().windows.size(), 1u);

  const auto& got = decoded.value().windows[0];
  const auto want = sample_window();
  EXPECT_EQ(got.index, want.index);
  EXPECT_EQ(got.start, want.start);
  EXPECT_EQ(got.end, want.end);
  EXPECT_EQ(got.counter_deltas, want.counter_deltas);
  ASSERT_EQ(got.gauges.size(), 1u);
  // format_double is shortest-round-trip: doubles survive the wire exactly.
  EXPECT_EQ(got.gauges.at("ratio"), want.gauges.at("ratio"));
  const auto& gh = got.histograms.at("lat_ms");
  const auto& wh = want.histograms.at("lat_ms");
  EXPECT_EQ(gh.unit, wh.unit);
  EXPECT_EQ(gh.count, wh.count);
  EXPECT_EQ(gh.sum, wh.sum);
  EXPECT_EQ(gh.mean, wh.mean);
  EXPECT_EQ(gh.min, wh.min);
  EXPECT_EQ(gh.max, wh.max);
  EXPECT_EQ(gh.p50, wh.p50);
  EXPECT_EQ(gh.p95, wh.p95);
  EXPECT_EQ(gh.p99, wh.p99);
}

TEST(TelemetryCodec, RejectsMalformedReports) {
  EXPECT_FALSE(decode_telemetry_report("").ok());
  EXPECT_FALSE(decode_telemetry_report("HELLO 1 2 3\nEND\n").ok());
  // Truncated: no END terminator.
  EXPECT_FALSE(decode_telemetry_report("REPORT 0 0 0\n").ok());
  // A record line before any window header.
  EXPECT_FALSE(decode_telemetry_report("REPORT 0 1 0\nC hits 5\nEND\n").ok());
}

// ------------------------------------------------------- end-to-end run

TEST(TimelineRun, ScrapePathShipsWindowsAndReconciles) {
  TestbedParams params;
  params.enable_timeline = true;
  params.timeline_interval = sim::seconds(30.0);
  params.slo_rules = {
      obs::parse_slo_rule("warm: ap.cache.hit_ratio >= 0.99 over 2 windows").value()};

  Testbed bed(params);
  std::vector<workload::AppSpec> apps{workload::make_movie_trailer()};
  WorkloadConfig config;
  config.duration = sim::minutes(5.0);
  for (const auto& app : apps) bed.host_app(app);
  (void)run_workload(bed, apps, config);

  const auto& timeline = bed.observer().timeline();
  ASSERT_GT(timeline.windows().size(), 4u);
  // The acceptance identity: deltas partition the run exactly.
  EXPECT_TRUE(timeline.reconcile(bed.observer().metrics()).empty());

  // The collector scraped over the simulated WAN and saw a prefix of the
  // AP's windows, bit-exact after the text round trip.
  auto* collector = bed.telemetry_collector();
  ASSERT_NE(collector, nullptr);
  EXPECT_GT(collector->scrapes_sent(), 0u);
  EXPECT_GT(collector->reports_received(), 0u);
  ASSERT_LE(collector->windows().size(), timeline.windows().size());
  ASSERT_GT(collector->windows().size(), 0u);
  for (std::size_t i = 0; i < collector->windows().size(); ++i) {
    const auto& got = collector->windows()[i];
    const auto& want = timeline.windows()[i];
    EXPECT_EQ(got.index, want.index);
    EXPECT_EQ(got.counter_deltas, want.counter_deltas);
    EXPECT_EQ(got.gauges, want.gauges);
  }

  // The scrape path accounted itself in the registry.
  auto& m = bed.observer().metrics();
  EXPECT_GT(m.counter("ap.telemetry.scrapes").value(), 0u);
  EXPECT_GT(m.counter("ap.telemetry.tx_bytes").value(), 0u);
  EXPECT_GT(m.counter("controller.telemetry.reports").value(), 0u);

  // The warm-up rule saw the early cold windows.
  EXPECT_GE(collector->slo().transitions().size(), 1u);
}

TEST(TimelineRun, DefaultRunCarriesNoTelemetry) {
  Testbed bed(TestbedParams{});
  EXPECT_EQ(bed.telemetry_collector(), nullptr);
  EXPECT_EQ(bed.telemetry_agent(), nullptr);
  EXPECT_FALSE(bed.observer().timeline_enabled());

  std::vector<workload::AppSpec> apps{workload::make_movie_trailer()};
  WorkloadConfig config;
  config.duration = sim::minutes(2.0);
  for (const auto& app : apps) bed.host_app(app);
  (void)run_workload(bed, apps, config);

  EXPECT_TRUE(bed.observer().timeline().windows().empty());
  EXPECT_EQ(bed.observer().metrics().counter("ap.telemetry.scrapes").value(), 0u);

  // And the export carries no timeline sections — the byte-identity gate.
  const auto json = obs::to_json(bed.observer().metrics());
  EXPECT_EQ(json.find("timeseries"), std::string::npos);
  EXPECT_EQ(json.find("alerts"), std::string::npos);
}

}  // namespace
}  // namespace ape::testbed
