// Observability layer: registry semantics, trace-ring bounding, export
// schema stability, and the determinism contract (two identically seeded
// runs export byte-identical stable sections).
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "testbed/experiment.hpp"
#include "workload/app_generator.hpp"

using namespace ape;

// --- MetricsRegistry ------------------------------------------------------

TEST(MetricsRegistry, CounterAddAndSet) {
  obs::MetricsRegistry registry;
  auto& c = registry.counter("ap.cache.hit");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), 5u);
  c.set(2);
  EXPECT_EQ(c.value(), 2u);
  // Same name resolves to the same instrument.
  registry.counter("ap.cache.hit").add();
  EXPECT_EQ(c.value(), 3u);
  EXPECT_EQ(registry.counters().size(), 1u);
}

TEST(MetricsRegistry, GaugeTracksValueAndHighWater) {
  obs::MetricsRegistry registry;
  auto& g = registry.gauge("sim.queue.pending");
  g.set(10.0);
  g.set(25.0);
  g.set(7.0);
  EXPECT_DOUBLE_EQ(g.value(), 7.0);
  EXPECT_DOUBLE_EQ(g.max(), 25.0);
}

TEST(MetricsRegistry, GaugeHighWaterWorksForNegativeValues) {
  obs::MetricsRegistry registry;
  auto& g = registry.gauge("g");
  g.set(-5.0);
  EXPECT_DOUBLE_EQ(g.max(), -5.0);  // first write seeds the max
  g.set(-9.0);
  EXPECT_DOUBLE_EQ(g.value(), -9.0);
  EXPECT_DOUBLE_EQ(g.max(), -5.0);
}

TEST(MetricsRegistry, HistogramRecordsThroughStatsHistogram) {
  obs::MetricsRegistry registry;
  auto& h = registry.histogram("client.total_ms", "ms");
  for (int i = 1; i <= 100; ++i) h.record(static_cast<double>(i));
  EXPECT_EQ(h.count(), 100u);
  EXPECT_NEAR(h.percentile(0.50), 50.0, 1.5);
  EXPECT_NEAR(h.percentile(0.99), 99.0, 1.5);
}

TEST(MetricsRegistry, ReferencesStayStableAcrossInsertions) {
  obs::MetricsRegistry registry;
  auto& first = registry.counter("a");
  for (int i = 0; i < 100; ++i) registry.counter("c" + std::to_string(i));
  first.add(3);
  EXPECT_EQ(registry.counter("a").value(), 3u);
}

TEST(MetricsRegistry, MergePrefixesEveryInstrument) {
  obs::MetricsRegistry inner;
  inner.counter("hits").add(7);
  inner.gauge("depth").set(3.0);
  inner.gauge("depth").set(1.0);  // max 3, value 1
  inner.histogram("lat", "ms").record(5.0);

  obs::MetricsRegistry outer;
  outer.merge(inner, "ape.");
  EXPECT_EQ(outer.counter("ape.hits").value(), 7u);
  EXPECT_DOUBLE_EQ(outer.gauge("ape.depth").value(), 1.0);
  EXPECT_DOUBLE_EQ(outer.gauge("ape.depth").max(), 3.0);
  EXPECT_EQ(outer.histograms().at("ape.lat").histogram.count(), 1u);
}

TEST(MetricsRegistry, VolatileInstrumentsKeepTheirTag) {
  obs::MetricsRegistry registry;
  registry.gauge("pacm.solve_us", obs::Volatility::Volatile).set(12.5);
  registry.gauge("stable", obs::Volatility::Stable).set(1.0);
  EXPECT_EQ(registry.gauges().at("pacm.solve_us").volatility,
            obs::Volatility::Volatile);
  EXPECT_EQ(registry.gauges().at("stable").volatility, obs::Volatility::Stable);
}

// --- Export ---------------------------------------------------------------

TEST(ObsExport, FormatDoubleIsShortestRoundTrip) {
  EXPECT_EQ(obs::format_double(0.5), "0.5");
  EXPECT_EQ(obs::format_double(3.0), "3");
  EXPECT_EQ(obs::format_double(0.0), "0");
  // A value with no short decimal form still survives the text round trip
  // bit-exactly.
  constexpr double kGolden = 0.6180339887498949;
  EXPECT_EQ(std::stod(obs::format_double(kGolden)), kGolden);
  // Non-finite values degrade to 0 (JSON has no NaN/Inf).
  EXPECT_EQ(obs::format_double(std::numeric_limits<double>::quiet_NaN()), "0");
  EXPECT_EQ(obs::format_double(std::numeric_limits<double>::infinity()), "0");
}

TEST(ObsExport, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(obs::json_escape("plain"), "plain");
  EXPECT_EQ(obs::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(obs::json_escape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(ObsExport, JsonContainsSchemaAndAllSections) {
  obs::MetricsRegistry registry;
  registry.counter("hits").add(3);
  registry.gauge("depth").set(2.5);
  registry.histogram("lat", "ms").record(1.0);

  obs::ExportOptions options;
  options.meta["bench"] = "unit";
  const std::string json = obs::to_json(registry, options);
  EXPECT_NE(json.find("\"schema\":\"ape.obs.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"meta\":{\"bench\":\"unit\"}"), std::string::npos);
  EXPECT_NE(json.find("\"hits\":3"), std::string::npos);
  EXPECT_NE(json.find("\"depth\":{\"value\":2.5,\"max\":2.5}"), std::string::npos);
  EXPECT_NE(json.find("\"lat\":{\"unit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
}

TEST(ObsExport, VolatileSectionOnlyOnRequest) {
  obs::MetricsRegistry registry;
  registry.gauge("stable").set(1.0);
  registry.gauge("wall_us", obs::Volatility::Volatile).set(42.0);

  const std::string stable_only = obs::to_json(registry);
  EXPECT_EQ(stable_only.find("wall_us"), std::string::npos);
  EXPECT_NE(stable_only.find("stable"), std::string::npos);

  obs::ExportOptions options;
  options.include_volatile = true;
  const std::string with_volatile = obs::to_json(registry, options);
  EXPECT_NE(with_volatile.find("\"volatile\""), std::string::npos);
  EXPECT_NE(with_volatile.find("wall_us"), std::string::npos);
}

TEST(ObsExport, CsvEmitsOneRowPerScalar) {
  obs::MetricsRegistry registry;
  registry.counter("hits").add(3);
  registry.gauge("depth").set(2.0);
  std::ostringstream out;
  obs::write_csv(out, registry);
  const std::string csv = out.str();
  EXPECT_NE(csv.find("hits,counter,value,3"), std::string::npos);
  EXPECT_NE(csv.find("depth,gauge,value,2"), std::string::npos);
}

// --- Observer + determinism end-to-end ------------------------------------

TEST(Observer, CountAndEventHelpers) {
  obs::Observer observer;
  observer.count("x", 2);
  observer.count("x");
  EXPECT_EQ(observer.metrics().counter("x").value(), 3u);
}

namespace {

// A small deterministic run; returns the stable JSON snapshot.
std::string run_snapshot() {
  ape::sim::Rng rng(42);
  workload::GeneratorParams params;
  params.app_count = 5;
  const auto apps = workload::generate_apps(params, rng);

  testbed::WorkloadConfig config;
  config.mean_freq_per_min = 3.0;
  config.duration = sim::minutes(5.0);
  config.seed = 42;

  const auto result = testbed::run_system(testbed::System::ApeCache,
                                          testbed::TestbedParams{}, apps, config);
  return obs::to_json(result.metrics);
}

}  // namespace

TEST(Observer, IdenticallySeededRunsExportByteIdenticalSnapshots) {
  const std::string a = run_snapshot();
  const std::string b = run_snapshot();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  // And the run actually produced metrics, not an empty shell.
  EXPECT_NE(a.find("ap.cache."), std::string::npos);
  EXPECT_NE(a.find("sim.events_fired"), std::string::npos);
}
