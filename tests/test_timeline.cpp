// Windowed telemetry (DESIGN.md §5g): the Timeline delta cursor, the SLO
// rule grammar + alert state machine, and the end-to-end path through the
// testbed's capture tick into its SLO evaluator.
#include <gtest/gtest.h>

#include <sstream>

#include "obs/export.hpp"
#include "obs/slo.hpp"
#include "obs/timeline.hpp"
#include "testbed/experiment.hpp"
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

// ------------------------------------------------------- end-to-end run

WorkloadConfig short_config() {
  WorkloadConfig config;
  config.duration = sim::minutes(5.0);
  return config;
}

TEST(TimelineRun, SiteEvaluatesEveryWindowAndReconciles) {
  TestbedParams params;
  params.enable_timeline = true;
  params.timeline_interval = sim::seconds(30.0);
  params.slo_rules = {
      obs::parse_slo_rule("warm: ap.cache.hit_ratio >= 0.99 over 2 windows").value()};

  Testbed bed(params);
  const std::vector<workload::AppSpec> apps{workload::make_movie_trailer()};
  (void)run_workload(bed, apps, short_config());

  const auto& timeline = bed.observer().timeline();
  ASSERT_GT(timeline.windows().size(), 4u);
  // The acceptance identity: deltas partition the run exactly.
  EXPECT_TRUE(timeline.reconcile(bed.observer().metrics()).empty());

  // The site's evaluator was loaded from the params and saw the early cold
  // windows, starting with the first one.
  ASSERT_EQ(bed.slo().rule_count(), 1u);
  const auto& transitions = bed.slo().transitions();
  ASSERT_GE(transitions.size(), 1u);
  EXPECT_EQ(transitions.front().window, 0u);
  EXPECT_EQ(transitions.front().rule, "warm");
  EXPECT_LT(transitions.back().window, timeline.windows().size());

  // Alerts live in the export's alerts section only: the registry carries
  // no mirror counters (one written after a capture would sit outside
  // every window).
  const auto json = obs::to_json(bed.observer().metrics());
  EXPECT_EQ(json.find("\"slo."), std::string::npos);
}

TEST(TimelineRun, PlaneIsObservationOnly) {
  // Same workload with the timeline off and on: the capture ticks and the
  // SLO evaluator only watch, so every simulated outcome matches, down to
  // the AP's CPU busy time.
  const std::vector<workload::AppSpec> apps{workload::make_movie_trailer(),
                                            workload::make_virtual_home()};
  Testbed off_bed(TestbedParams{});
  auto off = run_workload(off_bed, apps, short_config());

  TestbedParams on_params;
  on_params.enable_timeline = true;
  on_params.timeline_interval = sim::seconds(10.0);
  on_params.slo_rules = {
      obs::parse_slo_rule("tail: client.total_ms p99 <= 10ms over 1 windows").value()};
  Testbed on_bed(on_params);
  auto on = run_workload(on_bed, apps, short_config());
  ASSERT_GT(on_bed.observer().timeline().windows().size(), 10u);
  ASSERT_FALSE(on_bed.slo().transitions().empty());

  EXPECT_EQ(off.app_runs, on.app_runs);
  EXPECT_EQ(off.object_fetches, on.object_fetches);
  EXPECT_EQ(off.failures, on.failures);
  EXPECT_EQ(off.ap_hits, on.ap_hits);
  EXPECT_EQ(off.high_priority_fetches, on.high_priority_fetches);
  EXPECT_EQ(off.high_priority_ap_hits, on.high_priority_ap_hits);
  EXPECT_EQ(off.app_latency_ms.samples(), on.app_latency_ms.samples());
  EXPECT_EQ(off.lookup_ms.samples(), on.lookup_ms.samples());
  EXPECT_EQ(off.retrieval_ms.samples(), on.retrieval_ms.samples());
  EXPECT_EQ(off.total_ms.samples(), on.total_ms.samples());
  EXPECT_EQ(off.metrics.gauge("ap.cpu.busy_s").value(),
            on.metrics.gauge("ap.cpu.busy_s").value());
}

TEST(TimelineRun, ApRestartKeepsWindowsExact) {
  TestbedParams params;
  params.ape.flash_capacity_bytes = 5'000'000;
  params.enable_timeline = true;
  params.timeline_interval = sim::seconds(10.0);
  params.slo_rules = {
      obs::parse_slo_rule("warm: ap.cache.hit_ratio >= 0.5 over 1 windows").value()};
  Testbed bed(params);
  const auto app = workload::make_movie_trailer();
  bed.host_app(app);
  const sim::Time until{sim::minutes(3.0)};
  bed.start_timeline(until);

  // Fetches every object once through a fresh client, leaving each fetch
  // five sim-seconds to drain.
  auto run_app = [&bed, &app](const std::string& name) {
    auto& client = bed.add_client(name);
    for (auto& spec : app.cacheables()) client.runtime->register_cacheable(spec);
    for (const auto& request : app.requests) {
      client.runtime->fetch(request.url, [](core::ClientRuntime::FetchResult) {});
      bed.simulator().run_until(bed.simulator().now() + sim::seconds(5.0));
    }
  };
  run_app("phone");

  // A warm restart at a quiesced instant, between two capture ticks.
  ASSERT_EQ(bed.ap().cpu().busy_servers(), 0u);
  ASSERT_EQ(bed.ap().cpu().queued(), 0u);
  const std::size_t windows_before = bed.observer().timeline().windows().size();
  ASSERT_GT(windows_before, 0u);
  bed.restart_ap(/*preserve_flash=*/true);

  run_app("tablet");
  bed.simulator().run_until(until);
  bed.flush_timeline();

  const auto& timeline = bed.observer().timeline();
  EXPECT_GT(timeline.windows().size(), windows_before);
  EXPECT_TRUE(timeline.reconcile(bed.observer().metrics()).empty());
  EXPECT_FALSE(bed.slo().transitions().empty());
}

TEST(TimelineRun, DefaultRunCarriesNoTimeline) {
  Testbed bed(TestbedParams{});
  EXPECT_FALSE(bed.observer().timeline_enabled());
  EXPECT_EQ(bed.slo().rule_count(), 0u);

  const std::vector<workload::AppSpec> apps{workload::make_movie_trailer()};
  WorkloadConfig config;
  config.duration = sim::minutes(2.0);
  (void)run_workload(bed, apps, config);

  EXPECT_TRUE(bed.observer().timeline().windows().empty());
  EXPECT_TRUE(bed.slo().transitions().empty());

  // And the export carries no timeline sections — the byte-identity gate.
  const auto json = obs::to_json(bed.observer().metrics());
  EXPECT_EQ(json.find("timeseries"), std::string::npos);
  EXPECT_EQ(json.find("alerts"), std::string::npos);
}

}  // namespace
}  // namespace ape::testbed
