// bench_engine — pure event-engine throughput.
//
// Drives sim::Simulator directly (no network stack, no runtimes) with a
// synthetic fleet shaped like the Wi-Cache hot path: every simulated
// request is a short-horizon event chain (wifi uplink → AP service →
// wifi downlink) guarded by a 2 s timeout that is scheduled on arrival
// and cancelled on completion — so the bench exercises exactly what the
// real topology runs stress: dense sub-10 ms scheduling, heavy
// schedule-then-cancel tombstone churn, and a sprinkle of far-future
// maintenance timers that live beyond any short-horizon fast path.
//
// Output contract:
//   * stable counters (engine.requests_completed, engine.sim.*, and the
//     order-sensitive engine.order_digest) are pure sim-time facts — any
//     scheduler change that reorders events flips the digest, so the
//     committed baseline doubles as a determinism oracle;
//   * wall-clock-derived rates (engine.events_per_sec,
//     engine.requests_per_sec, engine.wall_seconds) are
//     Volatility::Volatile gauges, exported under "volatile" and watched
//     by the engine-perf CI lane with a generous floor.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/profile.hpp"
#include "obs/wallclock.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace {

using ape::sim::Duration;
using ape::sim::Simulator;
using ape::sim::Time;

struct EngineParams {
  std::size_t clients = 100000;       // concurrent request chains
  double sim_seconds = 30.0;  // simulated horizon (CLI unit)  // ape-lint: allow(raw-seconds)
  double mean_gap_ms = 2000.0;        // per-client exponential think time
  std::size_t maintenance_timers = 64;  // far-future periodic timers
};

// One synthetic fleet: each client loops { think, request chain }, with a
// timeout armed per request and cancelled on completion.  All latencies
// are drawn from one shared Rng *in event-fire order*, so the stream of
// draws — and therefore every stable counter below — is a function of the
// scheduler's ordering contract.
class EngineBench {
 public:
  EngineBench(const EngineParams& params) : params_(params) {
    timeout_.resize(params_.clients, 0);
  }

  void run() {
    for (std::size_t c = 0; c < params_.clients; ++c) schedule_think(c);
    for (std::size_t i = 0; i < params_.maintenance_timers; ++i) {
      // Staggered starts so the far timers do not all land on one instant.
      const auto offset = ape::sim::milliseconds(
          static_cast<std::int64_t>(1 + i * kMaintenancePeriodMs / std::max<std::size_t>(params_.maintenance_timers, 1)));
      sim_.schedule_in(offset, [this] { maintenance(); }, APE_EVT("ap.maintenance.tick"));
    }
    sim_.run_until(Time{ape::sim::microseconds(
        static_cast<std::int64_t>(params_.sim_seconds * 1e6))});
  }

  [[nodiscard]] const Simulator& sim() const noexcept { return sim_; }
  [[nodiscard]] Simulator& sim() noexcept { return sim_; }
  [[nodiscard]] std::uint64_t requests_started() const noexcept { return started_; }
  [[nodiscard]] std::uint64_t requests_completed() const noexcept { return completed_; }
  [[nodiscard]] std::uint64_t timeouts_fired() const noexcept { return timeouts_fired_; }
  [[nodiscard]] std::uint64_t maintenance_fired() const noexcept { return maintenance_fired_; }
  [[nodiscard]] std::uint64_t order_digest() const noexcept { return digest_; }

 private:
  static constexpr std::int64_t kMaintenancePeriodMs = 30000;  // beyond any horizon
  static constexpr std::int64_t kTimeoutMs = 2000;

  void schedule_think(std::size_t c) {
    const double gap_us = rng_.exponential(params_.mean_gap_ms * 1000.0);
    sim_.schedule_in(ape::sim::microseconds(static_cast<std::int64_t>(gap_us) + 1),
                     [this, c] { arrive(c); }, APE_EVT("client.request.arrive"));
  }

  void arrive(std::size_t c) {
    ++started_;
    timeout_[c] = sim_.schedule_in(ape::sim::milliseconds(kTimeoutMs),
                                   [this, c] { timed_out(c); },
                                   APE_EVT("client.request.timeout"));
    sim_.schedule_in(wifi_hop(), [this, c] { uplink_done(c); },
                     APE_EVT("net.wifi.uplink"));
  }

  void uplink_done(std::size_t c) {
    const auto service = ape::sim::microseconds(rng_.uniform_int(100, 500));
    sim_.schedule_in(service, [this, c] { service_done(c); },
                     APE_EVT("ap.request.serve"));
  }

  void service_done(std::size_t c) {
    sim_.schedule_in(wifi_hop(), [this, c] { complete(c); },
                     APE_EVT("net.wifi.downlink"));
  }

  void complete(std::size_t c) {
    sim_.cancel(timeout_[c]);
    timeout_[c] = 0;
    ++completed_;
    mix(static_cast<std::uint64_t>(c));
    mix(static_cast<std::uint64_t>(sim_.now().since_epoch.count()));
    schedule_think(c);
  }

  void timed_out(std::size_t c) {
    // Unreachable with these parameters (chains finish in < 7 ms); kept so
    // the bench stays honest if someone cranks the service times up.
    ++timeouts_fired_;
    timeout_[c] = 0;
    schedule_think(c);
  }

  void maintenance() {
    ++maintenance_fired_;
    sim_.schedule_in(ape::sim::milliseconds(kMaintenancePeriodMs),
                     [this] { maintenance(); }, APE_EVT("ap.maintenance.tick"));
  }

  [[nodiscard]] Duration wifi_hop() {
    return ape::sim::microseconds(rng_.uniform_int(500, 3000));
  }

  void mix(std::uint64_t v) noexcept {  // FNV-1a over the completion stream
    digest_ ^= v;
    digest_ *= 1099511628211ULL;
  }

  EngineParams params_;
  Simulator sim_;
  ape::sim::Rng rng_{ape::bench::kSeed};
  std::vector<Simulator::EventId> timeout_;
  std::uint64_t started_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t timeouts_fired_ = 0;
  std::uint64_t maintenance_fired_ = 0;
  std::uint64_t digest_ = 14695981039346656037ULL;
};

}  // namespace

int main(int argc, char** argv) {
  ape::bench::BenchReporter reporter(argc, argv, "bench_engine");
  reporter.export_volatile(true);

  EngineParams params;
  std::string profile_path;
  bool profile_wallclock = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--clients" && i + 1 < argc) {
      params.clients = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg == "--seconds" && i + 1 < argc) {
      params.sim_seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--mean-gap-ms" && i + 1 < argc) {
      params.mean_gap_ms = std::strtod(argv[++i], nullptr);
    } else if (arg == "--profile-out" && i + 1 < argc) {
      profile_path = argv[++i];
    } else if (arg == "--profile-wallclock") {
      profile_wallclock = true;
    }
  }

  ape::bench::print_header(
      "bench_engine: sustained scheduler throughput",
      "ROADMAP scale arc — prerequisite for fleet-sized topologies");
  std::printf("clients=%zu sim_seconds=%.1f mean_gap_ms=%.0f\n\n", params.clients,
              params.sim_seconds, params.mean_gap_ms);

  EngineBench bench(params);
  // Mounted before the first schedule so the stable per-kind counters
  // account for every event the run ever created (the identities
  // `obs_report.py profile` checks depend on this).
  ape::obs::EngineProfiler profiler(bench.sim());
  profiler.enable_wallclock(profile_wallclock);
  const ape::obs::WallClockTimer timer(true);
  bench.run();
  const double wall_us = timer.elapsed_us();

  const auto& sim = bench.sim();
  const double wall_s = wall_us / 1e6;  // ape-lint: allow(raw-seconds) — wall-clock, not sim time
  const double events_per_sec =
      wall_s > 0.0 ? static_cast<double>(sim.events_fired()) / wall_s : 0.0;
  const double requests_per_sec =
      wall_s > 0.0 ? static_cast<double>(bench.requests_completed()) / wall_s : 0.0;

  std::printf("events fired        %12zu\n", sim.events_fired());
  std::printf("requests completed  %12" PRIu64 "\n", bench.requests_completed());
  std::printf("events cancelled    %12zu\n", sim.events_cancelled());
  std::printf("compactions         %12zu\n", sim.compactions());
  std::printf("queue high water    %12zu\n", sim.queue_high_water());
  std::printf("order digest        %12" PRIu64 "\n", bench.order_digest());
  std::printf("wall seconds        %12.3f\n", wall_s);
  std::printf("events/sec          %12.0f\n", events_per_sec);
  std::printf("requests/sec        %12.0f\n\n", requests_per_sec);

  // Stable section: pure sim-time facts, byte-identical across hosts.
  reporter.counter("engine.requests_started", bench.requests_started());
  reporter.counter("engine.requests_completed", bench.requests_completed());
  reporter.counter("engine.timeouts_fired", bench.timeouts_fired());
  reporter.counter("engine.maintenance_fired", bench.maintenance_fired());
  reporter.counter("engine.order_digest", bench.order_digest());
  reporter.counter("engine.sim.events_fired", sim.events_fired());
  reporter.counter("engine.sim.events_cancelled", sim.events_cancelled());
  reporter.counter("engine.sim.compactions", sim.compactions());
  reporter.counter("engine.sim.queue_high_water", sim.queue_high_water());
  reporter.counter("engine.sim.pending_at_end", sim.pending());

  // Volatile section: wall-clock rates for the engine-perf CI lane.
  auto& registry = reporter.metrics();
  registry.gauge("engine.events_per_sec", ape::obs::Volatility::Volatile)
      .set(events_per_sec);
  registry.gauge("engine.requests_per_sec", ape::obs::Volatility::Volatile)
      .set(requests_per_sec);
  registry.gauge("engine.wall_seconds", ape::obs::Volatility::Volatile).set(wall_s);

  if (!profile_path.empty()) {
    // Separate snapshot so the default --json stays byte-identical: stable
    // profile counters plus the structured "profile" section, no volatile
    // section.  Without --profile-wallclock the file is a deterministic
    // function of the run (CI cmp's two back-to-back runs).
    ape::obs::MetricsRegistry profile_registry;
    profiler.record_metrics(profile_registry);
    ape::obs::ExportOptions profile_options;
    profile_options.meta["bench"] = "bench_engine.profile";
    profile_options.profile = &profiler;
    if (ape::obs::write_json_file(profile_path, profile_registry, profile_options)) {
      std::printf("profile snapshot: %s\n", profile_path.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write %s\n", profile_path.c_str());
      return 1;
    }
  }

  return reporter.finish();
}
