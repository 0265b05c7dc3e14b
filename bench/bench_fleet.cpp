// bench_fleet — cooperative-cache fleet scaling sweep (DESIGN.md §5j).
//
// Runs the SAME aggregate workload (fixed client population, fixed arrival
// schedule, fixed seed) against fleets of 1 / 4 / 16 / 64 APs, twice per
// size: once with the sharded directory on (peer probes relay misses from
// neighbors) and once with it off (N isolated single-AP caches — the
// baseline FleetParams::enable_peer_probe documents).  Clients attach
// round-robin, and successive app runs rotate across clients, so every
// app's objects are requested from every AP — the traffic shape that makes
// cooperation matter.
//
// Output contract (all stable, byte-identical across hosts):
//   * fleet<N>.serves.{local,peer,delegated,edge} — where fetches landed;
//   * fleet<N>.{local,fleet}_hit_ratio vs fleet<N>.isolated_* — the
//     cooperative win: with relays never inserting locally, each object
//     resides at exactly one AP, so N small caches behave like one big
//     deduplicated cache and the fleet-wide ratio climbs with N while the
//     isolated ratio decays;
//   * fleet<N>.{local,peer,delegated,edge}_p50_ms and app-latency p50/p99
//     — a peer relay must land strictly between a local hit and an edge
//     fetch (LAN hop vs 7-hop WAN), checked as a hard gate at 16 APs;
//   * fleet<N>.order_digest — FNV-1a over the completion stream, so any
//     scheduler or protocol reordering flips the committed baseline.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "baselines/ape_lru_system.hpp"
#include "bench_common.hpp"
#include "fleet/fleet_testbed.hpp"
#include "testbed/app_driver.hpp"
#include "workload/arrivals.hpp"

using namespace ape;

namespace {

// Fixed across the sweep: identical client population + arrival schedule at
// every fleet size, so only the attachment pattern changes.
constexpr std::size_t kClientCount = 64;
constexpr std::size_t kAppCount = 12;
// Max object 800 kB: the generated tail crosses the 500 kB block threshold,
// so the sweep exercises the direct-to-edge class alongside local/peer.
constexpr std::size_t kMaxObjectKb = 800;
constexpr double kFreqPerMin = 4.0;
constexpr double kDurationMinutes = 15.0;
constexpr double kZipfExponent = 0.8;

struct FleetRunStats {
  std::size_t app_runs = 0;
  std::size_t fetches = 0;
  std::size_t failures = 0;
  std::size_t local = 0, peer = 0, delegated = 0, edge = 0;
  stats::Histogram app_latency_ms;
  stats::Histogram local_ms, peer_ms, delegated_ms, edge_ms;
  // Bucketed by the issuing client's AP: per-AP local hit ratios, so the
  // isolated run can report its best single AP.
  std::vector<std::size_t> ap_fetches, ap_local;
  std::uint64_t digest = 14695981039346656037ULL;

  void mix(std::uint64_t v) noexcept {  // FNV-1a over the completion stream
    digest ^= v;
    digest *= 1099511628211ULL;
  }
  [[nodiscard]] double local_ratio() const noexcept {
    return fetches == 0 ? 0.0 : static_cast<double>(local) / static_cast<double>(fetches);
  }
  [[nodiscard]] double fleet_ratio() const noexcept {
    return fetches == 0 ? 0.0
                        : static_cast<double>(local + peer) / static_cast<double>(fetches);
  }
  [[nodiscard]] double best_ap_local_ratio() const noexcept {
    double best = 0.0;
    for (std::size_t i = 0; i < ap_fetches.size(); ++i) {
      if (ap_fetches[i] == 0) continue;
      best = std::max(best, static_cast<double>(ap_local[i]) /
                                static_cast<double>(ap_fetches[i]));
    }
    return best;
  }
};

FleetRunStats run_fleet(std::size_t ap_count, bool enable_probe,
                        const std::vector<workload::AppSpec>& apps,
                        obs::MetricsRegistry* merge_into, const std::string& merge_prefix) {
  fleet::FleetParams params;
  params.ap_count = ap_count;
  params.shard_count = std::min<std::size_t>(std::size_t{4}, ap_count);
  params.enable_peer_probe = enable_probe;

  fleet::FleetTestbed bed(params);
  for (const auto& app : apps) bed.host_app(app);

  std::vector<fleet::FleetTestbed::Client*> clients;
  std::vector<std::unique_ptr<baselines::ApeFetcher>> fetchers;
  clients.reserve(kClientCount);
  fetchers.reserve(kClientCount);
  for (std::size_t c = 0; c < kClientCount; ++c) {
    auto& client = bed.add_client("client-" + std::to_string(c),
                                  static_cast<std::uint32_t>(c % ap_count));
    for (const auto& app : apps) {
      for (const auto& spec : app.cacheables()) client.runtime->register_cacheable(spec);
    }
    clients.push_back(&client);
    fetchers.push_back(
        std::make_unique<baselines::ApeFetcher>(*client.runtime, "APE-CACHE fleet"));
  }

  // One driver per (app, client): successive arrivals of an app rotate
  // across clients, so its objects are fetched from every AP.
  std::vector<std::unique_ptr<testbed::AppDriver>> drivers;
  drivers.reserve(apps.size() * kClientCount);
  for (const auto& app : apps) {
    for (std::size_t c = 0; c < kClientCount; ++c) {
      drivers.push_back(
          std::make_unique<testbed::AppDriver>(bed.simulator(), app, *fetchers[c]));
    }
  }

  auto stats = std::make_shared<FleetRunStats>();
  stats->ap_fetches.assign(ap_count, 0);
  stats->ap_local.assign(ap_count, 0);

  sim::Rng rng(bench::kSeed);
  workload::ArrivalSchedule arrivals(apps.size(), kFreqPerMin, kZipfExponent, rng);
  const sim::Time horizon{sim::minutes(kDurationMinutes)};
  sim::Simulator* sim = &bed.simulator();

  std::size_t seq = 0;
  while (auto arrival = arrivals.next(horizon)) {
    const std::size_t c = seq++ % kClientCount;
    const std::size_t ap = c % ap_count;
    const std::size_t app_index = arrival->app_index;
    testbed::AppDriver* driver = drivers[app_index * kClientCount + c].get();
    sim->schedule_at(arrival->at, [driver, stats, sim, ap, app_index] {
      driver->run_once([stats, sim, ap, app_index](testbed::AppRunResult run) {
        ++stats->app_runs;
        stats->app_latency_ms.record(sim::to_millis(run.app_latency));
        stats->mix(app_index);
        stats->mix(ap);
        stats->mix(static_cast<std::uint64_t>(sim->now().since_epoch.count()));
        for (const auto& obj : run.objects) {
          const auto& r = obj.result;
          ++stats->fetches;
          ++stats->ap_fetches[ap];
          stats->mix(static_cast<std::uint64_t>(r.source));
          if (!r.success) {
            ++stats->failures;
            continue;
          }
          const double retrieval = sim::to_millis(r.retrieval_latency);
          switch (r.source) {
            case core::ClientRuntime::Source::ApCache:
              ++stats->local;
              ++stats->ap_local[ap];
              stats->local_ms.record(retrieval);
              break;
            case core::ClientRuntime::Source::ApPeer:
              ++stats->peer;
              stats->peer_ms.record(retrieval);
              break;
            case core::ClientRuntime::Source::ApDelegated:
              ++stats->delegated;
              stats->delegated_ms.record(retrieval);
              break;
            case core::ClientRuntime::Source::EdgeServer:
              ++stats->edge;
              stats->edge_ms.record(retrieval);
              break;
            default:
              break;
          }
        }
      });
    });
  }

  // Grace period lets in-flight runs (worst case: delegation + directory
  // timeouts) complete before aggregation.
  bed.simulator().run_until(horizon + sim::seconds(30.0));
  bed.collect_metrics();
  if (merge_into != nullptr) {
    merge_into->merge(bed.observer().metrics(), merge_prefix + ".");
  }
  return std::move(*stats);
}

std::string pct(double ratio) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%", ratio * 100.0);
  return buf;
}

std::string ms(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", value);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchReporter reporter(argc, argv, "bench_fleet");

  bench::print_header(
      "bench_fleet: multi-AP fleet with a sharded cooperative-cache directory",
      "Sec. VII deployment discussion — fleet scaling beyond the single-AP testbed");
  std::printf("apps=%zu clients=%zu freq=%.1f/min duration=%.0f min max_object=%zu kB\n\n",
              kAppCount, kClientCount, kFreqPerMin, kDurationMinutes, kMaxObjectKb);

  const auto apps = bench::paper_workload(kAppCount, kMaxObjectKb);

  stats::Table table("fleet sweep: cooperative (directory on) vs isolated (directory off)");
  table.header({"APs", "fetches", "local", "peer", "fleet-hit", "iso-best-AP", "local p50",
                "peer p50", "edge p50", "app p99 ms"});

  int rc = 0;
  const std::size_t ap_counts[] = {1, 4, 16, 64};
  for (const std::size_t n : ap_counts) {
    const std::string prefix = "fleet" + std::to_string(n);
    // Merge the cooperative 16-AP run's full registry (dir.*, fleet.ap<i>.*)
    // into the snapshot — the headline config the CI lane watches in depth.
    obs::MetricsRegistry* merge_into = (n == 16) ? &reporter.metrics() : nullptr;
    const auto coop = run_fleet(n, true, apps, merge_into, prefix + ".registry");
    const auto iso = run_fleet(n, false, apps, nullptr, "");

    const double local_p50 = coop.local_ms.percentile(0.5);
    const double peer_p50 = coop.peer_ms.percentile(0.5);
    const double delegated_p50 = coop.delegated_ms.percentile(0.5);
    const double edge_p50 = coop.edge_ms.percentile(0.5);

    table.row({std::to_string(n), std::to_string(coop.fetches), pct(coop.local_ratio()),
               pct(coop.fetches == 0
                       ? 0.0
                       : static_cast<double>(coop.peer) / static_cast<double>(coop.fetches)),
               pct(coop.fleet_ratio()), pct(iso.best_ap_local_ratio()), ms(local_p50),
               ms(peer_p50), ms(delegated_p50),
               ms(coop.app_latency_ms.percentile(0.99))});

    reporter.counter(prefix + ".fetches", coop.fetches);
    reporter.counter(prefix + ".failures", coop.failures);
    reporter.counter(prefix + ".app_runs", coop.app_runs);
    reporter.counter(prefix + ".serves.local", coop.local);
    reporter.counter(prefix + ".serves.peer", coop.peer);
    reporter.counter(prefix + ".serves.delegated", coop.delegated);
    reporter.counter(prefix + ".serves.edge", coop.edge);
    reporter.counter(prefix + ".order_digest", coop.digest);
    reporter.counter(prefix + ".isolated.order_digest", iso.digest);
    reporter.gauge(prefix + ".local_hit_ratio", coop.local_ratio());
    reporter.gauge(prefix + ".fleet_hit_ratio", coop.fleet_ratio());
    reporter.gauge(prefix + ".isolated_hit_ratio", iso.fleet_ratio());
    reporter.gauge(prefix + ".isolated_best_ap_hit_ratio", iso.best_ap_local_ratio());
    reporter.gauge(prefix + ".local_p50_ms", local_p50);
    reporter.gauge(prefix + ".peer_p50_ms", peer_p50);
    reporter.gauge(prefix + ".delegated_p50_ms", delegated_p50);
    reporter.gauge(prefix + ".edge_p50_ms", edge_p50);
    reporter.gauge(prefix + ".app_latency_p50_ms", coop.app_latency_ms.percentile(0.5));
    reporter.gauge(prefix + ".app_latency_p99_ms", coop.app_latency_ms.percentile(0.99));

    // Hard gates at the headline size (ISSUE acceptance): a peer relay is
    // strictly slower than a local hit and strictly faster than the edge
    // fallback, and cooperation beats the best isolated AP on the same
    // aggregate workload.
    if (n == 16) {
      const bool ordering_ok =
          coop.peer > 0 && local_p50 < peer_p50 && peer_p50 < delegated_p50;
      const bool ratio_ok = coop.fleet_ratio() > iso.best_ap_local_ratio();
      reporter.gauge(prefix + ".peer_latency_ordering_ok", ordering_ok ? 1.0 : 0.0);
      reporter.gauge(prefix + ".cooperation_wins_ok", ratio_ok ? 1.0 : 0.0);
      if (!ordering_ok) {
        std::fprintf(stderr,
                     "GATE FAIL: peer p50 %.3f ms not strictly between local %.3f ms "
                     "and edge %.3f ms at 16 APs\n",
                     peer_p50, local_p50, delegated_p50);
        rc = 1;
      }
      if (!ratio_ok) {
        std::fprintf(stderr,
                     "GATE FAIL: fleet hit ratio %.4f does not beat best isolated AP "
                     "%.4f at 16 APs\n",
                     coop.fleet_ratio(), iso.best_ap_local_ratio());
        rc = 1;
      }
    }
  }
  table.print(std::cout);

  bench::print_note(
      "every number above is a pure sim-time fact: run the bench twice and the "
      "--json snapshots must be byte-identical (the CI lane cmp's them).");

  const int finish_rc = reporter.finish();
  return rc != 0 ? rc : finish_rc;
}
