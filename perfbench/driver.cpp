// perfbench_driver — the measuring half of the full-stack benchmark
// (README.md in this directory).
//
//   perfbench_driver <workload> <seed> <seconds> <trace 0|1>
//
// Generates the workload's apps and open-loop arrival schedule from <seed>,
// then drives the whole stack through the testbeds' public API: clients ->
// WiFi -> AP DNS-Cache/HTTP -> PACM -> edge and DNS hierarchy (plus the
// fleet directory on the multi-AP workload).  It times set-up and
// Simulator::run_until from outside the program, repeats untraced runs for
// <seconds>, and with <trace 1> adds one run with the engine profiler's
// wall clock and PACM's solve timer switched on.  Each run starts from
// empty caches.
//
// Output is one JSON object of raw facts on stdout: host times, counts and
// sim-time samples.  Every percentile, ratio, layer attribution and check
// is computed from it by run.py.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "fleet/fleet_testbed.hpp"
#include "obs/profile.hpp"
#include "testbed/app_driver.hpp"
#include "testbed/testbed.hpp"
#include "workload/real_apps.hpp"

using namespace ape;

namespace {

// ------------------------------------------------------------- workloads

struct Workload {
  const char* name;
  std::size_t ap_count;  // 1: testbed::Testbed; more: fleet::FleetTestbed
  std::size_t shard_count;
  bool real_apps;  // MovieTrailer + VirtualHome ahead of the generated apps
  std::size_t generated_apps;
  std::size_t max_object_kb;
  double runs_per_min;  // mean over apps; Zipf(0.8) across them
  std::size_t clients;
  double sim_minutes;
};

// paper_pacm: the paper's Sec. V-A suite on one 5 MB AP, where ~25 % of
//   fetches miss and every delegated insert at capacity runs PACM's DP.
// hot_hits: ten apps whose whole catalog (61 objects of at most 50 kB) fits
//   in the cache, so after warm-up nearly every fetch is an AP hit and PACM
//   never solves: the read path, net model and scheduler set the rate.
// fleet16: the paper suite over 16 APs and 4 directory shards; arrivals
//   rotate over 64 clients, so most fetches are peer relays found through
//   the directory, and the catalog fits in 16 x 5 MB (PACM idle).
constexpr Workload kWorkloads[] = {
    {"paper_pacm", 1, 0, true, 28, 100, 3.0, 1, 60.0},
    {"hot_hits", 1, 0, false, 10, 50, 30.0, 4, 60.0},
    {"fleet16", 16, 4, true, 28, 100, 4.0, 64, 90.0},
};

constexpr double kZipfExponent = 0.8;
// In-flight runs (delegation + directory timeouts) finish inside this.
constexpr double kGraceSeconds = 30.0;
// Set-up takes milliseconds, so it is repeated for a steady median: a few
// times up front, then between the measured runs, so that its samples see
// the same host conditions as the runs do.
constexpr std::size_t kWarmSetups = 10;
constexpr std::size_t kSetupsPerRun = 10;

// ---------------------------------------------------------------- inputs

// The benchmark's own generator, so the inputs stay put when the
// program's sim::Rng or workload generator changes.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }  // [0, 1)
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(next() % static_cast<std::uint64_t>(hi - lo + 1));
  }
  double exponential(double mean) { return -mean * std::log1p(-uniform()); }

 private:
  std::uint64_t state_;
};

template <class T>
void shuffle(std::vector<T>& v, SplitMix64& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const auto j = rng.uniform_int(0, static_cast<std::int64_t>(i - 1));
    std::swap(v[i - 1], v[static_cast<std::size_t>(j)]);
  }
}

// n stratified draws from [lo, hi): one per stratum of width (hi - lo) / n,
// in shuffled order.
std::vector<double> stratified(std::size_t n, double lo, double hi, SplitMix64& rng) {
  std::vector<double> v(n);
  for (std::size_t k = 0; k < n; ++k) {
    v[k] = lo + (hi - lo) * (static_cast<double>(k) + rng.uniform()) / static_cast<double>(n);
  }
  shuffle(v, rng);
  return v;
}

// Synthetic apps as paper Sec. V-A describes them: an ID request, then 3-8
// parallel detail fetches; sizes from 1 kB to max_object_kb, 10-60 min
// TTLs, 20-50 ms backend latency.  The critical path (ID, then the detail
// slowest by backend delay plus a 10 MB/s transfer) gets priority 2.
//
// The DAG shape cycles through the fanouts by popularity rank, and each
// app's sizes, TTLs and delays are stratified over its own objects.  The
// seed thus decides every value and which object gets it, but not how
// many bytes the popular apps hold, which would otherwise swing the hit
// ratio and PACM's work per fetch from seed to seed.
std::vector<workload::AppSpec> generate_apps(const Workload& w, SplitMix64& rng) {
  std::vector<workload::AppSpec> apps;
  for (std::size_t i = 0; i < w.generated_apps; ++i) {
    const std::size_t objects = 1 + 3 + i % 6;
    const auto sizes =
        stratified(objects, 1e3, static_cast<double>(w.max_object_kb) * 1e3, rng);
    const auto ttls = stratified(objects, 10.0, 61.0, rng);
    const auto backend_ms = stratified(objects, 20.0, 50.0, rng);

    workload::AppSpec& app = apps.emplace_back();
    app.id = static_cast<core::AppId>(100 + i);
    app.name = "bench-app-" + std::to_string(app.id);
    app.domain = "app" + std::to_string(app.id) + ".example.com";
    std::size_t slowest = 1;
    double slowest_ms = -1.0;
    for (std::size_t j = 0; j < objects; ++j) {
      workload::RequestSpec& r = app.requests.emplace_back();
      r.name = j == 0 ? "id" : "detail" + std::to_string(j - 1);
      r.url = "http://" + app.domain + "/" + r.name;
      r.size_bytes = static_cast<std::size_t>(sizes[j]);
      r.ttl_minutes = static_cast<std::uint32_t>(ttls[j]);
      r.retrieval_latency = sim::milliseconds(backend_ms[j]);
      if (j == 0) {
        r.priority = 2;
        continue;
      }
      r.depends_on.push_back(0);
      const double ms = backend_ms[j] + sizes[j] / 1e4;
      if (ms > slowest_ms) {
        slowest_ms = ms;
        slowest = j;
      }
    }
    app.requests[slowest].priority = 2;
  }
  return apps;
}

struct Arrival {
  sim::Time at;
  std::size_t app;
};

struct Inputs {
  std::vector<workload::AppSpec> apps;
  std::vector<Arrival> arrivals;  // sorted by (time, app)
  sim::Time run_end;              // horizon + grace
};

Inputs make_inputs(const Workload& w, std::uint64_t seed) {
  Inputs in;
  if (w.real_apps) {
    in.apps.push_back(workload::make_movie_trailer());
    in.apps.push_back(workload::make_virtual_home());
  }
  SplitMix64 app_rng(seed);
  for (auto& app : generate_apps(w, app_rng)) in.apps.push_back(std::move(app));

  // Per-app Poisson arrivals; app i has Zipf rank i, and the rates average
  // to runs_per_min.
  const std::size_t n = in.apps.size();
  double norm = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    norm += std::pow(static_cast<double>(i + 1), -kZipfExponent);
  }
  SplitMix64 arrival_rng(seed ^ 0xA076'1D64'78BD'642FULL);
  for (std::size_t i = 0; i < n; ++i) {
    const double rate = std::pow(static_cast<double>(i + 1), -kZipfExponent) / norm *
                        static_cast<double>(n) * w.runs_per_min;
    for (double t = arrival_rng.exponential(1.0 / rate); t <= w.sim_minutes;
         t += arrival_rng.exponential(1.0 / rate)) {
      in.arrivals.push_back({sim::Time{sim::Duration{std::llround(t * 60e6)}}, i});
    }
  }
  std::sort(in.arrivals.begin(), in.arrivals.end(), [](const Arrival& a, const Arrival& b) {
    return a.at != b.at ? a.at < b.at : a.app < b.app;
  });
  in.run_end = sim::Time{sim::minutes(w.sim_minutes) + sim::seconds(kGraceSeconds)};
  return in;
}

// ---------------------------------------------------------------- tallies

enum Served { kLocal, kPeer, kDelegated, kEdge, kServedKinds };
constexpr const char* kServedNames[kServedKinds] = {"local", "peer", "delegated", "edge"};

struct Tally {
  std::size_t attempted = 0;
  std::size_t answered = 0;
  std::size_t failed = 0;  // answered with success == false
  std::size_t served[kServedKinds] = {};
  std::vector<double> retrieval_ms[kServedKinds];
  std::size_t app_runs = 0;
  std::vector<double> app_latency_ms;
  std::uint64_t digest = 14695981039346656037ULL;

  void mix(std::uint64_t v) noexcept {  // FNV-1a over the completion stream
    digest ^= v;
    digest *= 1099511628211ULL;
  }

  void answer(const core::ClientRuntime::FetchResult& r) {
    ++answered;
    if (!r.success) {
      ++failed;
      return;
    }
    int kind = -1;
    switch (r.source) {
      case core::ClientRuntime::Source::ApCache: kind = kLocal; break;
      case core::ClientRuntime::Source::ApPeer: kind = kPeer; break;
      case core::ClientRuntime::Source::ApDelegated: kind = kDelegated; break;
      case core::ClientRuntime::Source::EdgeServer: kind = kEdge; break;
      default: return;
    }
    ++served[kind];
    retrieval_ms[kind].push_back(sim::to_millis(r.retrieval_latency));
  }

  void run_done(std::size_t app, sim::Time now, const testbed::AppRunResult& run) {
    ++app_runs;
    app_latency_ms.push_back(sim::to_millis(run.app_latency));
    mix(app);
    mix(static_cast<std::uint64_t>(now.since_epoch.count()));
    for (const auto& obj : run.objects) mix(static_cast<std::uint64_t>(obj.result.source));
  }
};

// Counts at the ObjectFetcher boundary: every fetch an AppDriver issues
// and every answer the stack returns, so an unanswered fetch shows up as
// attempted - answered instead of vanishing.
class CountingFetcher final : public baselines::ObjectFetcher {
 public:
  CountingFetcher(baselines::ObjectFetcher& inner, Tally& tally)
      : inner_(inner), tally_(tally) {}

  void fetch_object(const std::string& url,
                    core::ClientRuntime::FetchHandler handler) override {
    ++tally_.attempted;
    inner_.fetch_object(url, [tally = &tally_, handler = std::move(handler)](
                                 core::ClientRuntime::FetchResult r) {
      tally->answer(r);
      handler(std::move(r));
    });
  }
  [[nodiscard]] std::string system_name() const override { return inner_.system_name(); }

 private:
  baselines::ObjectFetcher& inner_;
  Tally& tally_;
};

// ------------------------------------------------------------------ rigs

// What both testbed shapes share: the tally, the counting fetchers, one
// AppDriver per (app, client) pair in use, and the planted arrivals.
struct Rig {
  Tally tally;
  std::vector<std::unique_ptr<baselines::ObjectFetcher>> owned;
  std::vector<std::unique_ptr<CountingFetcher>> fetchers;  // one per client
  std::vector<std::unique_ptr<testbed::AppDriver>> drivers;

  void plant(sim::Simulator& sim, const Inputs& in,
             const std::vector<testbed::AppDriver*>& driver_of_arrival) {
    for (std::size_t k = 0; k < in.arrivals.size(); ++k) {
      testbed::AppDriver* driver = driver_of_arrival[k];
      const std::size_t app = in.arrivals[k].app;
      Tally* t = &tally;
      sim::Simulator* s = &sim;
      sim.schedule_at(in.arrivals[k].at, [driver, app, t, s] {
        driver->run_once(
            [app, t, s](testbed::AppRunResult run) { t->run_done(app, s->now(), run); });
      }, APE_EVT("client.app.arrive"));
    }
  }
};

// One APE-CACHE AP with PACM; app i runs on client i % clients.
class SingleApBed {
 public:
  SingleApBed(const Workload& w, const Inputs& in) : bed_(testbed::TestbedParams{}) {
    for (const auto& app : in.apps) bed_.host_app(app);
    std::vector<testbed::Testbed::Client*> clients;
    for (std::size_t c = 0; c < w.clients; ++c) {
      clients.push_back(&bed_.add_client("client-" + std::to_string(c)));
      rig_.fetchers.push_back(
          std::make_unique<CountingFetcher>(*clients.back()->fetcher, rig_.tally));
    }
    for (std::size_t i = 0; i < in.apps.size(); ++i) {
      const std::size_t c = i % w.clients;
      for (const auto& spec : in.apps[i].cacheables()) {
        clients[c]->runtime->register_cacheable(spec);
      }
      rig_.drivers.push_back(std::make_unique<testbed::AppDriver>(bed_.simulator(), in.apps[i],
                                                                  *rig_.fetchers[c]));
    }
    std::vector<testbed::AppDriver*> driver_of;
    for (const Arrival& a : in.arrivals) driver_of.push_back(rig_.drivers[a.app].get());
    rig_.plant(bed_.simulator(), in, driver_of);
  }

  sim::Simulator& simulator() { return bed_.simulator(); }
  obs::Observer& observer() { return bed_.observer(); }
  void collect_metrics() { bed_.collect_metrics(); }
  std::size_t datagrams() { return bed_.network().counters().datagrams_sent; }
  std::size_t capacity_evictions() { return bed_.ap().data_cache().evictions(); }
  double max_ap_cpu_util() {
    return cpu_util(bed_.ap(), bed_.simulator().now());
  }
  Tally& tally() { return rig_.tally; }

  static double cpu_util(core::ApRuntime& ap, sim::Time now) {
    return sim::to_seconds(ap.cpu().busy_time()) /
           (static_cast<double>(ap.cpu_cores()) * now.seconds());
  }

 private:
  Rig rig_;  // outlives the testbed, whose teardown drops pending handlers
  testbed::Testbed bed_;
};

// N APs behind a sharded cooperative directory; clients attach round-robin
// and successive arrivals rotate over clients, so each app's objects are
// requested from every AP.
class FleetBed {
 public:
  FleetBed(const Workload& w, const Inputs& in) : bed_(params(w)) {
    for (const auto& app : in.apps) bed_.host_app(app);
    for (std::size_t c = 0; c < w.clients; ++c) {
      auto& client = bed_.add_client("client-" + std::to_string(c),
                                     static_cast<std::uint32_t>(c % w.ap_count));
      for (const auto& app : in.apps) {
        for (const auto& spec : app.cacheables()) client.runtime->register_cacheable(spec);
      }
      rig_.owned.push_back(std::make_unique<baselines::ApeFetcher>(*client.runtime));
      rig_.fetchers.push_back(
          std::make_unique<CountingFetcher>(*rig_.owned.back(), rig_.tally));
    }
    for (const auto& app : in.apps) {
      for (std::size_t c = 0; c < w.clients; ++c) {
        rig_.drivers.push_back(
            std::make_unique<testbed::AppDriver>(bed_.simulator(), app, *rig_.fetchers[c]));
      }
    }
    std::vector<testbed::AppDriver*> driver_of;
    for (std::size_t k = 0; k < in.arrivals.size(); ++k) {
      driver_of.push_back(rig_.drivers[in.arrivals[k].app * w.clients + k % w.clients].get());
    }
    rig_.plant(bed_.simulator(), in, driver_of);
  }

  sim::Simulator& simulator() { return bed_.simulator(); }
  obs::Observer& observer() { return bed_.observer(); }
  void collect_metrics() { bed_.collect_metrics(); }
  std::size_t datagrams() { return bed_.network().counters().datagrams_sent; }
  std::size_t capacity_evictions() {
    std::size_t n = 0;
    for (std::size_t i = 0; i < bed_.ap_count(); ++i) n += bed_.ap(i).data_cache().evictions();
    return n;
  }
  double max_ap_cpu_util() {
    double worst = 0.0;
    for (std::size_t i = 0; i < bed_.ap_count(); ++i) {
      worst = std::max(worst, SingleApBed::cpu_util(bed_.ap(i), bed_.simulator().now()));
    }
    return worst;
  }
  Tally& tally() { return rig_.tally; }

 private:
  static fleet::FleetParams params(const Workload& w) {
    fleet::FleetParams p;
    p.ap_count = w.ap_count;
    p.shard_count = w.shard_count;
    return p;
  }

  Rig rig_;
  fleet::FleetTestbed bed_;
};

// ------------------------------------------------------------- measuring

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// The process's own resident high-water mark.  getrusage's ru_maxrss would
// also carry the parent's RSS across exec.
long peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtol(line.c_str() + 6, nullptr, 10);
  }
  return 0;
}

// Sim-time facts of one run (identical for every run of one seed) plus the
// host times of that run.
struct RunFacts {
  double setup_s = 0.0;
  double run_s = 0.0;  // wall inside run_until
  Tally tally;
  std::size_t events = 0;
  std::size_t datagrams = 0;
  std::size_t capacity_evictions = 0;
  double max_ap_cpu_util = 0.0;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::vector<double>>> histograms;
  std::vector<std::pair<std::string, std::uint64_t>> kind_wall_ns;  // traced runs only
};

// Registry histograms the layer metrics read; pacm.solve_us exists only in
// traced runs (Observer::enable_wallclock).
constexpr const char* kHistograms[] = {"client.lookup_ms", "client.retrieval_ms",
                                       "pacm.candidates", "pacm.repair_rounds",
                                       "pacm.solve_us"};

template <class Bed>
RunFacts run_once(const Workload& w, const Inputs& in, bool traced) {
  RunFacts f;
  const auto t0 = std::chrono::steady_clock::now();
  Bed bed(w, in);
  f.setup_s = seconds_since(t0);

  std::optional<obs::EngineProfiler> profiler;
  if (traced) {
    bed.observer().enable_wallclock();
    profiler.emplace(bed.simulator());
    profiler->enable_wallclock(true);
  }
  const auto t1 = std::chrono::steady_clock::now();
  bed.simulator().run_until(in.run_end);
  f.run_s = seconds_since(t1);

  bed.collect_metrics();
  f.tally = std::move(bed.tally());
  f.events = bed.simulator().events_fired();
  f.datagrams = bed.datagrams();
  f.capacity_evictions = bed.capacity_evictions();
  f.max_ap_cpu_util = bed.max_ap_cpu_util();
  const obs::MetricsRegistry& m = bed.observer().metrics();
  for (const auto& [name, counter] : m.counters()) {
    f.counters.emplace_back(name, counter.value());
  }
  for (const char* name : kHistograms) {
    auto it = m.histograms().find(name);
    f.histograms.emplace_back(name, it == m.histograms().end()
                                        ? std::vector<double>{}
                                        : it->second.histogram.samples());
  }
  if (profiler) {
    for (const auto& row : profiler->rows()) {
      f.kind_wall_ns.emplace_back(row.name, row.profile.fire_wall_ns);
    }
  }
  return f;
}

template <class Bed>
double setup_once(const Workload& w, const Inputs& in) {
  const auto t0 = std::chrono::steady_clock::now();
  Bed bed(w, in);
  return seconds_since(t0);
}

// ------------------------------------------------------------------ output

void put_doubles(const std::vector<double>& v, const char* fmt) {
  std::putchar('[');
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) std::putchar(',');
    std::printf(fmt, v[i]);
  }
  std::putchar(']');
}

void put_facts(const RunFacts& f) {
  const Tally& t = f.tally;
  std::printf("{\"setup_s\":%.9g,\"run_s\":%.9g,", f.setup_s, f.run_s);
  std::printf("\"digest\":\"%016llx\",\"app_runs\":%zu,\"attempted\":%zu,\"answered\":%zu,"
              "\"failed\":%zu,\"events\":%zu,\"datagrams\":%zu,\"capacity_evictions\":%zu,"
              "\"max_ap_cpu_util\":%.9g,",
              static_cast<unsigned long long>(t.digest), t.app_runs, t.attempted, t.answered,
              t.failed, f.events, f.datagrams, f.capacity_evictions, f.max_ap_cpu_util);
  std::printf("\"served\":{");
  for (int k = 0; k < kServedKinds; ++k) {
    std::printf("%s\"%s\":%zu", k ? "," : "", kServedNames[k], t.served[k]);
  }
  std::printf("},\"counters\":{");
  for (std::size_t i = 0; i < f.counters.size(); ++i) {
    std::printf("%s\"%s\":%llu", i ? "," : "", f.counters[i].first.c_str(),
                static_cast<unsigned long long>(f.counters[i].second));
  }
  std::printf("},\"samples\":{\"app_latency_ms\":");
  put_doubles(t.app_latency_ms, "%.10g");
  for (int k = 0; k < kServedKinds; ++k) {
    std::printf(",\"%s_retrieval_ms\":", kServedNames[k]);
    put_doubles(t.retrieval_ms[k], "%.10g");
  }
  for (const auto& [name, samples] : f.histograms) {
    std::printf(",\"%s\":", name.c_str());
    put_doubles(samples, "%.10g");
  }
  std::printf("},\"kind_wall_ns\":{");
  for (std::size_t i = 0; i < f.kind_wall_ns.size(); ++i) {
    std::printf("%s\"%s\":%llu", i ? "," : "", f.kind_wall_ns[i].first.c_str(),
                static_cast<unsigned long long>(f.kind_wall_ns[i].second));
  }
  std::printf("}}");
}

template <class Bed>
int measure(const Workload& w, std::uint64_t seed, double seconds, bool trace) {
  const Inputs in = make_inputs(w, seed);

  std::vector<double> setups;
  for (std::size_t i = 0; i < kWarmSetups; ++i) setups.push_back(setup_once<Bed>(w, in));

  // Untraced runs for `seconds`; the first keeps its facts, the rest only
  // what run.py compares against the first and their wall time.
  struct Rep {
    double run_s;
    std::size_t events;
    std::size_t answered;
    std::uint64_t digest;
  };
  std::optional<RunFacts> first;
  std::vector<Rep> reps;
  long peak_rss = 0;  // after the first run, so it does not grow with the run count
  const auto r0 = std::chrono::steady_clock::now();
  do {
    RunFacts f = run_once<Bed>(w, in, false);
    setups.push_back(f.setup_s);
    reps.push_back({f.run_s, f.events, f.tally.answered, f.tally.digest});
    if (!first) {
      first = std::move(f);
      peak_rss = peak_rss_kb();
    }
    for (std::size_t i = 0; i < kSetupsPerRun; ++i) setups.push_back(setup_once<Bed>(w, in));
  } while (seconds_since(r0) < seconds);
  std::optional<RunFacts> traced;
  if (trace) traced = run_once<Bed>(w, in, true);

  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"planted\":%zu,\"peak_rss_kb\":%ld,"
              "\"setup_s\":",
              w.name, static_cast<unsigned long long>(seed), in.arrivals.size(), peak_rss);
  put_doubles(setups, "%.9g");
  std::printf(",\"reps\":[");
  for (std::size_t i = 0; i < reps.size(); ++i) {
    std::printf("%s{\"run_s\":%.9g,\"events\":%zu,\"answered\":%zu,\"digest\":\"%016llx\"}",
                i ? "," : "", reps[i].run_s, reps[i].events, reps[i].answered,
                static_cast<unsigned long long>(reps[i].digest));
  }
  std::printf("],\"untraced\":");
  put_facts(*first);
  if (traced) {
    std::printf(",\"traced\":");
    put_facts(*traced);
  }
  std::printf("}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 5) {
    std::fprintf(stderr, "usage: %s <workload> <seed> <seconds> <trace 0|1>\n", argv[0]);
    return 2;
  }
  const std::string name = argv[1];
  const std::uint64_t seed = std::strtoull(argv[2], nullptr, 10);
  const double seconds = std::strtod(argv[3], nullptr);
  const bool trace = std::string(argv[4]) == "1";
  for (const Workload& w : kWorkloads) {
    if (name != w.name) continue;
    return w.ap_count == 1 ? measure<SingleApBed>(w, seed, seconds, trace)
                           : measure<FleetBed>(w, seed, seconds, trace);
  }
  std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
  return 2;
}
