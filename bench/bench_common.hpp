// Shared scaffolding for the experiment benches: the paper's default
// workload (2 real apps + 28 synthetic, Sec. V-A), run configs, table
// rendering with paper-reference columns for EXPERIMENTS.md, and the
// machine-readable snapshot every bench emits behind `--json <path>`.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "stats/table.hpp"
#include "testbed/experiment.hpp"
#include "workload/app_generator.hpp"
#include "workload/real_apps.hpp"

namespace ape::bench {

// Every bench binary owns one reporter: it parses `--json <path>`,
// accumulates the bench's headline numbers plus the full per-system
// registries, and dumps an "ape.obs.v1" snapshot on finish().
// This is what turns the human-oriented tables into a perf trajectory CI
// can diff (scripts/check_bench_regression.py).
class BenchReporter {
 public:
  BenchReporter(int argc, char** argv, std::string bench_name)
      : name_(std::move(bench_name)) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--json" && i + 1 < argc) {
        json_path_ = argv[++i];
      } else if (arg == "--trace-out" && i + 1 < argc) {
        trace_path_ = argv[++i];
      } else if (arg == "--timeline-out" && i + 1 < argc) {
        timeline_path_ = argv[++i];
      } else if (arg == "--help" || arg == "-h") {
        std::printf(
            "usage: %s [--json <path>] [--trace-out <path>] "
            "[--timeline-out <path>]\n",
            name_.c_str());
        std::exit(0);
      }
    }
  }

  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept { return registry_; }

  // Perfetto trace destination (`--trace-out <path>`); empty when the bench
  // should not run its traced flavour.  Tracing changes wire traffic, so
  // benches must keep traced runs *separate* from the snapshot runs — the
  // `--json` output stays byte-identical whether or not this is set.
  [[nodiscard]] const std::string& trace_path() const noexcept { return trace_path_; }

  // Timeline snapshot destination (`--timeline-out <path>`); empty when the
  // bench should not run its windowed-telemetry flavour.  The capture ticks
  // are simulator events that move the sim.* counters, so timeline runs
  // must stay separate from the `--json` snapshot runs.
  [[nodiscard]] const std::string& timeline_path() const noexcept { return timeline_path_; }

  void gauge(const std::string& name, double value) { registry_.gauge(name).set(value); }
  void counter(const std::string& name, std::uint64_t value) {
    registry_.counter(name).set(value);
  }

  // Opt-in: also emit the registry's Volatility::Volatile section in the
  // `--json` snapshot.  Benches that report wall-clock-derived rates
  // (bench_engine's events/sec) need this; the stable sections stay
  // byte-identical either way.
  void export_volatile(bool on) noexcept { export_volatile_ = on; }

  // Folds a run's full metrics snapshot in under `prefix.` — lining up
  // APE-CACHE / LRU / Wi-Cache / edge-only runs inside one file.
  void merge_run(const testbed::SystemRunResult& result, const std::string& prefix) {
    registry_.merge(result.metrics, prefix + ".");
  }

  // Writes the snapshot when requested; returns the bench's exit code.
  [[nodiscard]] int finish() {
    obs::ExportOptions options;
    options.meta["bench"] = name_;
    options.include_volatile = export_volatile_;
    if (json_path_.empty()) return 0;
    if (!obs::write_json_file(json_path_, registry_, options)) {
      std::fprintf(stderr, "error: cannot write %s\n", json_path_.c_str());
      return 1;
    }
    std::printf("json snapshot: %s\n", json_path_.c_str());
    return 0;
  }

 private:
  std::string name_;
  std::string json_path_;
  std::string trace_path_;
  std::string timeline_path_;
  bool export_volatile_ = false;
  obs::MetricsRegistry registry_;
};

inline constexpr std::uint64_t kSeed = 20240704;

// The paper's 30-app suite: MovieTrailer + VirtualHome + 28 generated apps.
inline std::vector<workload::AppSpec> paper_workload(std::size_t app_count = 30,
                                                     std::size_t max_object_kb = 100,
                                                     std::uint64_t seed = kSeed) {
  std::vector<workload::AppSpec> apps;
  if (app_count >= 1) apps.push_back(workload::make_movie_trailer());
  if (app_count >= 2) apps.push_back(workload::make_virtual_home());
  if (app_count > 2) {
    workload::GeneratorParams params;
    params.app_count = app_count - 2;
    params.max_object_bytes = max_object_kb * 1000;
    sim::Rng rng(seed);
    auto dummies = workload::generate_apps(params, rng);
    for (auto& app : dummies) apps.push_back(std::move(app));
  }
  return apps;
}

inline testbed::WorkloadConfig paper_config(double freq_per_min = 3.0,
                                            double duration_minutes = 60.0) {
  testbed::WorkloadConfig config;
  config.mean_freq_per_min = freq_per_min;
  config.duration = sim::minutes(duration_minutes);
  config.seed = kSeed;
  return config;
}

inline void print_header(const std::string& experiment, const std::string& paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf("==============================================================\n\n");
}

inline void print_note(const std::string& note) {
  std::printf("note: %s\n\n", note.c_str());
}

}  // namespace ape::bench
