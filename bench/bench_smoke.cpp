// CI smoke bench: a small, fully deterministic workload whose `--json`
// snapshot is committed as bench/baselines/smoke.json and diffed by
// scripts/check_bench_regression.py on every pull request.  Runtime is a
// few seconds — small enough for CI, large enough that hit ratios, latency
// percentiles and simulator event counts are meaningful.
#include <map>

#include "bench_common.hpp"
#include "obs/span_log.hpp"
#include "obs/trace_export.hpp"

using namespace ape;

namespace {

// Traced flavour (`--trace-out <path>`): one extra APE-CACHE run with the
// span subsystem on, validated and attributed before the Perfetto dump is
// written.  Kept apart from the snapshot runs above — trace carriers are
// real wire bytes, so this run is *not* byte-identical to the default ones
// and must never feed the `--json` snapshot.
int run_traced(const std::string& trace_path, const std::vector<workload::AppSpec>& apps,
               const testbed::WorkloadConfig& config) {
  testbed::TestbedParams params;
  params.enable_spans = true;
  params.span_capacity = 1 << 20;  // hold the full workload; drops would be a bug here
  testbed::Testbed bed(params);
  for (const auto& app : apps) bed.host_app(app);
  (void)testbed::run_workload(bed, apps, config);

  const auto& spans = bed.observer().spans().spans();
  const auto issues = obs::validate_spans(spans);
  if (!issues.empty()) {
    for (const auto& issue : issues) {
      std::fprintf(stderr, "trace invariant violated: trace=%llu span=%llu %s\n",
                   static_cast<unsigned long long>(issue.trace),
                   static_cast<unsigned long long>(issue.span), issue.what.c_str());
    }
    return 1;
  }
  if (bed.observer().spans().dropped() != 0) {
    std::fprintf(stderr, "trace capacity too small: %zu spans dropped\n",
                 bed.observer().spans().dropped());
    return 1;
  }

  // Latency attribution must reconcile *exactly* (integer sim-time): the
  // exclusive times of every trace sum to its root's end-to-end latency.
  const auto traces = obs::attribute_traces(spans);
  std::map<std::string, std::pair<std::size_t, sim::Duration>> by_kind;
  for (const auto& trace : traces) {
    if (!trace.reconciles) {
      std::fprintf(stderr,
                   "attribution failed to reconcile: trace=%llu end_to_end=%lld us "
                   "exclusive_sum=%lld us\n",
                   static_cast<unsigned long long>(trace.trace),
                   static_cast<long long>(trace.end_to_end.count()),
                   static_cast<long long>(trace.exclusive_sum.count()));
      return 1;
    }
    for (const auto& row : trace.rows) {
      auto& slot = by_kind[row.span->name];
      slot.first += 1;
      slot.second += row.exclusive;
    }
  }

  stats::Table attribution;
  attribution.header({"Span kind", "count", "exclusive total ms", "mean ms"});
  for (const auto& [kind, slot] : by_kind) {
    const double total_ms = sim::to_millis(slot.second);
    attribution.row({kind, std::to_string(slot.first), stats::Table::num(total_ms, 2),
                     stats::Table::num(total_ms / static_cast<double>(slot.first), 3)});
  }
  std::printf("Traced run: %zu traces, %zu spans, all reconciled exactly\n", traces.size(),
              spans.size());
  attribution.print(std::cout);

  obs::PerfettoExportOptions options;
  options.meta["bench"] = "smoke";
  options.meta["system"] = "ape";
  if (!obs::write_perfetto_file(trace_path, bed.observer().spans(), options)) {
    std::fprintf(stderr, "error: cannot write %s\n", trace_path.c_str());
    return 1;
  }
  std::printf("perfetto trace: %s\n", trace_path.c_str());
  return 0;
}

// Timeline flavour (`--timeline-out <path>`): one extra APE-CACHE run with
// windowed telemetry on — capture ticks every 30 s, the controller scraping
// the AP over the simulated WAN every 60 s, and two SLO rules watching the
// stream.  The run gates on Timeline::reconcile: every counter's window
// deltas must sum *exactly* to its end-of-run snapshot total (the windows
// partition the run), else the bench exits non-zero.  Like tracing, the
// scrape traffic is real simulated wire bytes, so this run never feeds the
// `--json` snapshot.
int run_timeline(const std::string& timeline_path, const std::vector<workload::AppSpec>& apps,
                 const testbed::WorkloadConfig& config) {
  testbed::TestbedParams params;
  params.enable_timeline = true;
  params.timeline_interval = sim::seconds(30.0);
  // Both rules violate while the cache is cold and recover as it warms, so
  // the committed expectations pin a fire -> resolve trajectory.
  params.slo_rules = {
      obs::parse_slo_rule("cache-warmup: ap.cache.hit_ratio >= 0.6 over 2 windows resolve 2")
          .value(),
      obs::parse_slo_rule("tail-latency: client.total_ms p99 <= 40ms over 2 windows resolve 2")
          .value(),
  };
  testbed::Testbed bed(params);
  for (const auto& app : apps) bed.host_app(app);
  (void)testbed::run_workload(bed, apps, config);

  const auto& timeline = bed.observer().timeline();
  const auto errors = timeline.reconcile(bed.observer().metrics());
  if (!errors.empty()) {
    for (const auto& err : errors) {
      std::fprintf(stderr, "timeline reconcile failed: %s\n", err.c_str());
    }
    return 1;
  }

  const auto* collector = bed.telemetry_collector();
  const auto& slo = collector->slo();
  std::printf(
      "Timeline run: %zu windows, all deltas reconcile exactly; "
      "%zu scrapes shipped %zu windows; alerts fired=%zu resolved=%zu\n",
      timeline.windows().size(), collector->scrapes_sent(), collector->windows().size(),
      slo.fired(), slo.resolved());
  for (const auto& t : slo.transitions()) {
    std::printf("  window %llu: %s %s -> %s (value %s)\n",
                static_cast<unsigned long long>(t.window), t.rule.c_str(),
                obs::to_string(t.from).c_str(), obs::to_string(t.to).c_str(),
                obs::format_double(t.value).c_str());
  }

  obs::ExportOptions options;
  options.meta["bench"] = "smoke";
  options.meta["flavour"] = "timeline";
  options.timeline = &timeline;
  options.alerts = &slo;
  if (!obs::write_json_file(timeline_path, bed.observer().metrics(), options)) {
    std::fprintf(stderr, "error: cannot write %s\n", timeline_path.c_str());
    return 1;
  }
  std::printf("timeline snapshot: %s\n", timeline_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchReporter reporter(argc, argv, "smoke");
  bench::print_header("Smoke — deterministic CI regression workload",
                      "no paper counterpart; guards the perf trajectory in CI");

  const auto apps = bench::paper_workload(/*app_count=*/10, /*max_object_kb=*/100);
  const auto config = bench::paper_config(/*freq_per_min=*/3.0, /*duration_minutes=*/10.0);

  const std::vector<std::pair<std::string, testbed::System>> systems{
      {"ape", testbed::System::ApeCache},
      {"lru", testbed::System::ApeCacheLru},
      {"edge", testbed::System::EdgeCache},
  };

  stats::Table table;
  table.header({"System", "hit ratio", "p50 ms", "p99 ms", "runs"});
  for (const auto& [label, system] : systems) {
    const auto result =
        testbed::run_system(system, testbed::TestbedParams{}, apps, config);
    const double p50 = result.app_latency_ms.percentile(0.50);
    const double p99 = result.app_latency_ms.percentile(0.99);
    table.row({to_string(system), stats::Table::num(result.hit_ratio(), 3),
               stats::Table::num(p50, 2), stats::Table::num(p99, 2),
               std::to_string(result.app_runs)});

    reporter.gauge(label + ".hit_ratio", result.hit_ratio());
    reporter.gauge(label + ".latency_p50_ms", p50);
    reporter.gauge(label + ".latency_p99_ms", p99);
    reporter.merge_run(result, label);
  }

  // Tiered flavour: APE-CACHE again but with a tight RAM cache over a
  // flash tier (src/store), so CI guards the demotion/compaction path's
  // perf trajectory too.  Appended after the classic runs — their metric
  // names (and values) stay untouched.
  {
    testbed::TestbedParams params;
    params.ape.cache_capacity_bytes = 1 * 1000 * 1000;
    params.ape.flash_capacity_bytes = 16 * 1000 * 1000;
    params.ape.sweep_interval = sim::minutes(1.0);
    const auto result =
        testbed::run_system(testbed::System::ApeCache, params, apps, config);
    const double p50 = result.app_latency_ms.percentile(0.50);
    const double p99 = result.app_latency_ms.percentile(0.99);
    table.row({"APE-CACHE tiered", stats::Table::num(result.hit_ratio(), 3),
               stats::Table::num(p50, 2), stats::Table::num(p99, 2),
               std::to_string(result.app_runs)});
    reporter.gauge("tiered.hit_ratio", result.hit_ratio());
    reporter.gauge("tiered.latency_p50_ms", p50);
    reporter.gauge("tiered.latency_p99_ms", p99);
    reporter.merge_run(result, "tiered");
  }
  table.print(std::cout);

  bench::print_note(
      "Two runs with the same seed must produce byte-identical snapshots; "
      "compare against bench/baselines/smoke.json with "
      "scripts/check_bench_regression.py.");

  if (!reporter.trace_path().empty()) {
    const int rc = run_traced(reporter.trace_path(), apps, config);
    if (rc != 0) return rc;
  }
  if (!reporter.timeline_path().empty()) {
    const int rc = run_timeline(reporter.timeline_path(), apps, config);
    if (rc != 0) return rc;
  }
  return reporter.finish();
}
