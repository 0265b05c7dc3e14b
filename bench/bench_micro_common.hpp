// Shared main() for the google-benchmark micros: runs the usual console
// reporting, and behind `--json <path>` also dumps an
// "ape.obs.v1" snapshot with per-benchmark timings.  Wall-clock timings are
// inherently noisy, so every metric lands in the snapshot's `volatile`
// section — scripts/check_bench_regression.py ignores it by default.
#pragma once

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"

namespace ape::bench {

// Console output as usual, plus one volatile gauge per benchmark run:
// `micro.<benchmark>.real_time_ns` / `.cpu_time_ns` / `.iterations`.
class MicroObsReporter : public benchmark::ConsoleReporter {
 public:
  explicit MicroObsReporter(obs::MetricsRegistry& registry) : registry_(registry) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const auto& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      const std::string base = "micro." + run.benchmark_name();
      registry_.gauge(base + ".real_time_ns", obs::Volatility::Volatile)
          .set(run.GetAdjustedRealTime());
      registry_.gauge(base + ".cpu_time_ns", obs::Volatility::Volatile)
          .set(run.GetAdjustedCPUTime());
      registry_.gauge(base + ".iterations", obs::Volatility::Volatile)
          .set(static_cast<double>(run.iterations));
    }
  }

 private:
  obs::MetricsRegistry& registry_;
};

// Drop-in replacement for BENCHMARK_MAIN(): strips our `--json` flag
// before handing argv to google-benchmark (which rejects unknown flags),
// then exports the collected registry.
inline int micro_bench_main(int argc, char** argv, const std::string& bench_name) {
  std::string json_path;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      passthrough.push_back(argv[i]);
    }
  }

  int pass_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, passthrough.data())) return 1;

  obs::MetricsRegistry registry;
  MicroObsReporter reporter(registry);
  benchmark::RunSpecifiedBenchmarks(&reporter);

  obs::ExportOptions options;
  options.meta["bench"] = bench_name;
  options.include_volatile = true;
  if (json_path.empty()) return 0;
  if (!obs::write_json_file(json_path, registry, options)) {
    std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("json snapshot: %s\n", json_path.c_str());
  return 0;
}

}  // namespace ape::bench

#define APE_MICRO_BENCH_MAIN(bench_name)                          \
  int main(int argc, char** argv) {                               \
    return ape::bench::micro_bench_main(argc, argv, bench_name);  \
  }
