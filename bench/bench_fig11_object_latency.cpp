// Fig. 11: object-level caching latency.
//   (a) cache-lookup latency vs app usage frequency, per system;
//   (b) lookup latency overhead: DNS-Cache query vs regular DNS (hit /
//       recursive miss) vs two standalone queries;
//   (c) cache-retrieval latency vs app usage frequency, per system.
//
// As in the paper, lookup/retrieval are measured per stage on the cache
// hit path of each system (the AP for APE-CACHE/Wi-Cache, the edge server
// for Edge Cache), sweeping the workload's mean usage frequency.
#include "bench_common.hpp"
#include "common/url_hash.hpp"

using namespace ape;

namespace {

struct SystemPoint {
  double lookup_ms = 0.0;
  double retrieval_ms = 0.0;
  double total_ms = 0.0;
};

SystemPoint measure(testbed::System system, double freq) {
  const auto apps = bench::paper_workload();
  auto config = bench::paper_config(freq, /*duration_minutes=*/60.0);
  const auto result = run_system(system, testbed::TestbedParams{}, apps, config);

  SystemPoint point;
  if (system == testbed::System::EdgeCache) {
    point.lookup_ms = result.edge_lookup_ms.mean();
    point.retrieval_ms = result.edge_retrieval_ms.mean();
  } else {
    point.lookup_ms = result.ap_hit_lookup_ms.mean();
    point.retrieval_ms = result.ap_hit_retrieval_ms.mean();
  }
  point.total_ms = point.lookup_ms + point.retrieval_ms;
  return point;
}

void fig11b(bench::BenchReporter& reporter) {
  std::printf("--- Fig. 11b: lookup latency overhead decomposition ---\n");
  testbed::TestbedParams params;
  params.system = testbed::System::ApeCache;
  testbed::Testbed bed(params);

  workload::AppSpec app = workload::make_movie_trailer();
  bed.host_app(app);
  auto& client = bed.add_client("probe-phone");
  for (auto& spec : app.cacheables()) client.runtime->register_cacheable(spec);

  // Warm the AP cache so DNS-Cache lookups short-circuit (hit path).
  for (const auto& r : app.requests) {
    client.runtime->fetch(r.url, [](core::ClientRuntime::FetchResult) {});
    bed.simulator().run();
  }

  auto mean_of = [&](auto&& issue, int n) {
    stats::Histogram h("ms");
    for (int i = 0; i < n; ++i) {
      issue(h);
      bed.simulator().run();
    }
    return h.mean();
  };

  const std::vector<UrlHash> hashes{
      hash_url("http://api.movietrailer.app/getMovieID")};

  // 1. DNS-Cache query (piggybacked lookup) against a fully cached domain.
  const double dns_cache = mean_of(
      [&](stats::Histogram& h) {
        client.runtime->dns_cache_lookup(
            "api.movietrailer.app", hashes,
            [&h](Result<dns::DnsMessage>, sim::Duration d) { h.record(sim::to_millis(d)); });
      },
      50);

  // 2. Regular DNS query answered from the AP's cache (hit): prime once
  //    with a cacheable-mapping testbed?  The default testbed's mapping is
  //    uncacheable (TTL 0), so a regular query always recurses — that IS the
  //    "regular DNS (miss)" line.  For the hit line we query the same name
  //    twice within a short window against a TTL-30 testbed below.
  const double regular_miss = mean_of(
      [&](stats::Histogram& h) {
        client.runtime->regular_dns_lookup(
            "api.movietrailer.app",
            [&h](Result<dns::DnsMessage>, sim::Duration d) { h.record(sim::to_millis(d)); });
      },
      50);

  // 3+4 run against a testbed whose mapping is cacheable, so the regular
  // DNS leg of the standalone pair is an AP cache *hit* — isolating the
  // cost of splitting the cache query off (the paper's +7 ms).
  testbed::TestbedParams warm_params;
  warm_params.system = testbed::System::ApeCache;
  warm_params.cdn_answer_ttl = 3600;
  testbed::Testbed warm_bed(warm_params);
  warm_bed.host_app(app);
  auto& warm_client = warm_bed.add_client("probe2");
  for (auto& spec : app.cacheables()) warm_client.runtime->register_cacheable(spec);
  // Warm both the dnsmasq record cache and the object cache.
  warm_client.runtime->regular_dns_lookup("api.movietrailer.app",
                                          [](Result<dns::DnsMessage>, sim::Duration) {});
  warm_bed.simulator().run();
  for (const auto& r : app.requests) {
    warm_client.runtime->fetch(r.url, [](core::ClientRuntime::FetchResult) {});
    warm_bed.simulator().run();
  }

  double regular_hit = 0.0;
  {
    stats::Histogram h("ms");
    for (int i = 0; i < 50; ++i) {
      warm_client.runtime->regular_dns_lookup(
          "api.movietrailer.app",
          [&h](Result<dns::DnsMessage>, sim::Duration d) { h.record(sim::to_millis(d)); });
      warm_bed.simulator().run();
    }
    regular_hit = h.mean();
  }

  stats::Histogram standalone("ms");
  for (int i = 0; i < 50; ++i) {
    warm_client.runtime->fetch_standalone(
        "http://api.movietrailer.app/getMovieID",
        [&standalone](core::ClientRuntime::FetchResult r) {
          standalone.record(sim::to_millis(r.lookup_latency));
        });
    warm_bed.simulator().run();
  }

  stats::Table table;
  table.header({"Query type", "Latency ms (ours)", "Paper"});
  table.row({"regular DNS, AP cache hit", stats::Table::num(regular_hit, 2), "~4 (baseline)"});
  table.row({"DNS-Cache query (piggybacked)", stats::Table::num(dns_cache, 2),
             "hit + ~0.02 ms processing"});
  table.row({"regular DNS, recursive miss", stats::Table::num(regular_miss, 2),
             "rises steeply (>20)"});
  table.row({"two standalone queries", stats::Table::num(standalone.mean(), 2),
             "piggybacked + ~7 ms"});
  table.print(std::cout);
  std::printf("piggybacking saves %.2f ms vs standalone; DNS-Cache costs %.2f ms over a "
              "plain AP-cached DNS answer\n\n",
              standalone.mean() - dns_cache, dns_cache - regular_hit);
  reporter.gauge("fig11b.dns_cache_ms", dns_cache);
  reporter.gauge("fig11b.regular_hit_ms", regular_hit);
  reporter.gauge("fig11b.regular_miss_ms", regular_miss);
  reporter.gauge("fig11b.standalone_ms", standalone.mean());
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchReporter reporter(argc, argv, "fig11_object_latency");
  bench::print_header("Fig. 11 — Object-Level Caching Latency",
                      "paper Fig. 11a/11b/11c (Sec. V-B)");

  const std::vector<double> freqs{1.0, 1.5, 2.0, 2.5, 3.0};
  const std::vector<testbed::System> systems{
      testbed::System::ApeCache, testbed::System::WiCache, testbed::System::EdgeCache};

  std::vector<std::vector<SystemPoint>> grid(systems.size());
  for (std::size_t s = 0; s < systems.size(); ++s) {
    for (double f : freqs) grid[s].push_back(measure(systems[s], f));
  }

  const std::vector<std::string> sys_names{"ape", "wicache", "edge"};
  for (std::size_t s = 0; s < systems.size(); ++s) {
    for (std::size_t i = 0; i < freqs.size(); ++i) {
      const std::string key =
          sys_names[s] + ".freq" + stats::Table::num(freqs[i], 1);
      reporter.gauge(key + ".lookup_ms", grid[s][i].lookup_ms);
      reporter.gauge(key + ".retrieval_ms", grid[s][i].retrieval_ms);
      reporter.gauge(key + ".total_ms", grid[s][i].total_ms);
    }
  }

  std::printf("--- Fig. 11a: cache lookup latency (ms) vs usage frequency ---\n");
  stats::Table lookup;
  lookup.header({"freq/min", "APE-CACHE", "Wi-Cache", "Edge Cache"});
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    lookup.row({stats::Table::num(freqs[i], 1), stats::Table::num(grid[0][i].lookup_ms, 2),
                stats::Table::num(grid[1][i].lookup_ms, 2),
                stats::Table::num(grid[2][i].lookup_ms, 2)});
  }
  lookup.print(std::cout);
  std::printf("paper: APE ~7.5 ms flat; Wi-Cache and Edge Cache exceed 22 ms\n\n");

  fig11b(reporter);

  std::printf("--- Fig. 11c: cache retrieval latency (ms) vs usage frequency ---\n");
  stats::Table retrieval;
  retrieval.header({"freq/min", "APE-CACHE", "Wi-Cache", "Edge Cache"});
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    retrieval.row({stats::Table::num(freqs[i], 1),
                   stats::Table::num(grid[0][i].retrieval_ms, 2),
                   stats::Table::num(grid[1][i].retrieval_ms, 2),
                   stats::Table::num(grid[2][i].retrieval_ms, 2)});
  }
  retrieval.print(std::cout);
  std::printf("paper: APE/Wi-Cache ~7 ms (AP proximity); Edge Cache ~30 ms\n\n");

  std::printf("--- Summary: overall single-object latency at freq=3 ---\n");
  stats::Table summary;
  summary.header({"System", "lookup + retrieval ms (ours)", "Paper"});
  summary.row({"APE-CACHE", stats::Table::num(grid[0].back().total_ms, 2), "14.24"});
  summary.row({"Wi-Cache", stats::Table::num(grid[1].back().total_ms, 2), "29.50"});
  summary.row({"Edge Cache", stats::Table::num(grid[2].back().total_ms, 2), "55.93"});
  summary.print(std::cout);
  const double vs_wicache = 1.0 - grid[0].back().total_ms / grid[1].back().total_ms;
  const double vs_edge = 1.0 - grid[0].back().total_ms / grid[2].back().total_ms;
  std::printf("reduction vs Wi-Cache: %.1f%% (paper 51.7%%); vs Edge Cache: %.1f%% "
              "(paper 74.5%%)\n",
              vs_wicache * 100.0, vs_edge * 100.0);
  return reporter.finish();
}
