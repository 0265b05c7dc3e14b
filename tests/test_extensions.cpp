// Extensions beyond the paper: GDSF eviction, PACM ablation switches,
// conditional-GET revalidation, multi-client workloads.
#include <gtest/gtest.h>

#include "cache/gdsf_policy.hpp"
#include "core/pacm.hpp"
#include "common/url_hash.hpp"
#include "testbed/experiment.hpp"
#include "workload/real_apps.hpp"
#include "workload/app_generator.hpp"

namespace ape {
namespace {

using cache::CacheEntry;
using cache::CacheStore;

CacheEntry sized_entry(UrlHash key, std::size_t size, double latency_ms,
                       double expires_s = 3600.0) {
  CacheEntry e;
  e.key = key;
  e.size_bytes = size;
  e.fetch_latency = sim::milliseconds(latency_ms);
  e.expires = sim::Time{sim::seconds(expires_s)};
  return e;
}

// --------------------------------------------------------------- GDSF

TEST(GdsfPolicy, PrefersCheapLargeVictims) {
  CacheStore store(300'000, std::make_unique<cache::GdsfPolicy>());
  const sim::Time t0{};
  constexpr UrlHash kIncoming = 1, kLargeCheap = 2, kSmallDear = 3;  // in name order
  // Large + cheap-to-refetch: low H.  Small + expensive: high H.
  store.insert(sized_entry(kLargeCheap, 200'000, 5.0), t0);
  store.insert(sized_entry(kSmallDear, 50'000, 50.0), t0);
  store.insert(sized_entry(kIncoming, 100'000, 30.0), t0);
  EXPECT_EQ(store.lookup_any(kLargeCheap), nullptr);
  EXPECT_NE(store.lookup_any(kSmallDear), nullptr);
  EXPECT_NE(store.lookup_any(kIncoming), nullptr);
}

TEST(GdsfPolicy, FrequencyRaisesValue) {
  CacheStore store(250'000, std::make_unique<cache::GdsfPolicy>());
  const sim::Time t0{};
  constexpr UrlHash kCold = 1, kHot = 2, kNewcomer = 3;  // in name order
  store.insert(sized_entry(kHot, 100'000, 10.0), t0);
  store.insert(sized_entry(kCold, 100'000, 10.0), t0);
  for (int i = 0; i < 10; ++i) (void)store.get(kHot, t0);
  store.insert(sized_entry(kNewcomer, 100'000, 10.0), t0);
  EXPECT_NE(store.lookup_any(kHot), nullptr);
  EXPECT_EQ(store.lookup_any(kCold), nullptr);
}

TEST(GdsfPolicy, InflationMonotone) {
  cache::GdsfPolicy policy;
  CacheStore store(150'000, std::make_unique<cache::GdsfPolicy>());
  const sim::Time t0{};
  double last = 0.0;
  for (int i = 0; i < 10; ++i) {
    store.insert(sized_entry(static_cast<UrlHash>(i), 60'000, 10.0), t0);
    const auto& p = static_cast<const cache::GdsfPolicy&>(store.policy());
    EXPECT_GE(p.inflation(), last);
    last = p.inflation();
  }
  EXPECT_GT(last, 0.0);
}

TEST(GdsfPolicy, NameIsGdsf) {
  EXPECT_EQ(cache::GdsfPolicy{}.name(), "GDSF");
}

// ----------------------------------------------------- PACM ablations

TEST(PacmAblation, NoPriorityIgnoresPriorities) {
  core::ApeConfig config;
  config.cache_capacity_bytes = 10'000;
  config.pacm_use_priority = false;
  core::PacmSolver solver(config);

  // Identical objects except priority: with priorities disabled the solver
  // must treat them the same, so the tie is broken elsewhere — both
  // orderings are acceptable, but flipping priorities must not change the
  // outcome.
  constexpr UrlHash kX = 1, kY = 2;
  std::vector<core::PacmObject> a{
      {kX, 1, 5'000, 1, 300.0, 30.0},
      {kY, 2, 5'000, 2, 300.0, 30.0},
  };
  std::vector<core::PacmObject> b{
      {kX, 1, 5'000, 2, 300.0, 30.0},
      {kY, 2, 5'000, 1, 300.0, 30.0},
  };
  const auto da = solver.select_evictions(a, 5'000, {{1, 1.0}, {2, 1.0}});
  const auto db = solver.select_evictions(b, 5'000, {{1, 1.0}, {2, 1.0}});
  ASSERT_EQ(da.evict.size(), 1u);
  ASSERT_EQ(db.evict.size(), 1u);
  EXPECT_EQ(da.evict[0], db.evict[0]);
}

TEST(PacmAblation, WithPriorityFlippingChangesOutcome) {
  core::ApeConfig config;
  config.cache_capacity_bytes = 10'000;
  core::PacmSolver solver(config);
  constexpr UrlHash kX = 1, kY = 2;
  std::vector<core::PacmObject> a{
      {kX, 1, 5'000, 1, 300.0, 30.0},
      {kY, 2, 5'000, 2, 300.0, 30.0},
  };
  const auto decision = solver.select_evictions(a, 5'000, {{1, 1.0}, {2, 1.0}});
  ASSERT_EQ(decision.evict.size(), 1u);
  EXPECT_EQ(decision.evict[0], kX);  // the low-priority object goes
}

TEST(PacmAblation, NoFairnessSkipsRepair) {
  core::ApeConfig config;
  config.cache_capacity_bytes = 120'000;
  config.fairness_theta = 0.05;  // aggressively tight
  config.pacm_use_fairness = false;
  core::PacmSolver solver(config);

  std::vector<core::PacmObject> cached;
  for (int i = 0; i < 4; ++i) {
    cached.push_back({static_cast<UrlHash>(1 + i), 1, 25'000, 2, 1000.0, 50.0});  // "big<i>"
  }
  cached.push_back({5, 2, 2'000, 1, 100.0, 10.0});  // "small"
  const auto decision = solver.select_evictions(cached, 10'000, {{1, 3.0}, {2, 3.0}});
  EXPECT_EQ(decision.repair_rounds, 0);
}

TEST(PacmAblation, ForceGreedyReportsInexact) {
  core::ApeConfig config;
  config.cache_capacity_bytes = 50'000;
  config.pacm_force_greedy = true;
  core::PacmSolver solver(config);
  std::vector<core::PacmObject> cached{
      {1, 1, 20'000, 1, 100.0, 30.0},
      {2, 2, 20'000, 1, 100.0, 30.0},
      {3, 3, 20'000, 1, 100.0, 30.0},
  };
  const auto decision = solver.select_evictions(cached, 20'000, {});
  EXPECT_FALSE(decision.exact);
}

TEST(PacmAblation, PolicyOverrideSelectsGdsfOnAp) {
  testbed::TestbedParams params;
  params.system = testbed::System::ApeCache;
  params.policy_override = core::ApRuntime::Policy::Gdsf;
  testbed::Testbed bed(params);
  EXPECT_EQ(bed.ap().data_cache().policy().name(), "GDSF");
}

// -------------------------------------------------------- revalidation

struct RevalidationFixture : ::testing::Test {
  std::unique_ptr<testbed::Testbed> bed;
  testbed::Testbed::Client* client = nullptr;
  workload::AppSpec app;

  void build(bool revalidation) {
    app.name = "reval";
    app.id = 80;
    app.domain = "api.reval.example";
    workload::RequestSpec r;
    r.name = "obj";
    r.url = "http://api.reval.example/obj";
    r.size_bytes = 40'000;
    r.ttl_minutes = 1;  // expires quickly
    r.priority = 2;
    r.retrieval_latency = sim::milliseconds(40);
    app.requests.push_back(std::move(r));

    testbed::TestbedParams params;
    params.system = testbed::System::ApeCache;
    params.ape.enable_revalidation = revalidation;
    bed = std::make_unique<testbed::Testbed>(params);
    bed->host_app(app);
    client = &bed->add_client("phone");
    for (auto& spec : app.cacheables()) client->runtime->register_cacheable(spec);
  }

  core::ClientRuntime::FetchResult fetch() {
    core::ClientRuntime::FetchResult out;
    client->runtime->fetch(app.requests[0].url,
                           [&out](core::ClientRuntime::FetchResult r) { out = std::move(r); });
    bed->simulator().run();
    return out;
  }
};

TEST_F(RevalidationFixture, RefreshesExpiredEntryWith304) {
  build(true);
  ASSERT_TRUE(fetch().success);  // delegation, full pull
  bed->simulator().run_until(bed->simulator().now() + sim::minutes(2.0));  // expire

  const auto refreshed = fetch();
  ASSERT_TRUE(refreshed.success);
  EXPECT_EQ(bed->ap().revalidations_performed(), 1u);
  // The refreshed copy is live again: the next fetch is a plain hit.
  const auto hit = fetch();
  EXPECT_EQ(hit.source, core::ClientRuntime::Source::ApCache);
}

TEST_F(RevalidationFixture, RevalidationIsCheaperThanFullPull) {
  build(true);
  const auto cold = fetch();  // full origin pull (incl. 40 ms backend)
  bed->simulator().run_until(bed->simulator().now() + sim::minutes(2.0));
  const auto reval = fetch();  // 304 path: no backend latency, no body
  ASSERT_TRUE(cold.success);
  ASSERT_TRUE(reval.success);
  EXPECT_LT(sim::to_millis(reval.retrieval_latency),
            sim::to_millis(cold.retrieval_latency) * 0.7);
}

TEST_F(RevalidationFixture, DisabledByDefaultDoesFullPull) {
  build(false);
  ASSERT_TRUE(fetch().success);
  bed->simulator().run_until(bed->simulator().now() + sim::minutes(2.0));
  ASSERT_TRUE(fetch().success);
  EXPECT_EQ(bed->ap().revalidations_performed(), 0u);
  EXPECT_EQ(bed->ap().delegations_performed(), 2u);
}

// -------------------------------------------------------- multi-client

TEST(MultiClient, ThreeDevicesShareTheApCache) {
  workload::GeneratorParams gen;
  gen.app_count = 6;
  sim::Rng rng(5);
  const auto apps = workload::generate_apps(gen, rng);

  testbed::WorkloadConfig config;
  config.duration = sim::minutes(10.0);
  config.client_count = 3;  // Fig. 9: two phones + an emulator
  config.seed = 5;

  const auto result = testbed::run_system(testbed::System::ApeCache,
                                          testbed::TestbedParams{}, apps, config);
  EXPECT_GT(result.app_runs, 50u);
  EXPECT_EQ(result.failures, 0u);
  EXPECT_GT(result.hit_ratio(), 0.4);
}

TEST(MultiClient, ResultsComparableToSingleClient) {
  workload::GeneratorParams gen;
  gen.app_count = 6;
  sim::Rng rng(6);
  const auto apps = workload::generate_apps(gen, rng);

  testbed::WorkloadConfig config;
  config.duration = sim::minutes(10.0);
  config.seed = 6;

  auto single = config;
  single.client_count = 1;
  auto triple = config;
  triple.client_count = 3;

  const auto one = testbed::run_system(testbed::System::ApeCache,
                                       testbed::TestbedParams{}, apps, single);
  const auto three = testbed::run_system(testbed::System::ApeCache,
                                         testbed::TestbedParams{}, apps, triple);
  // Same workload, same AP cache: latencies should be in the same ballpark
  // (the AP cache is shared, so distribution across devices changes little).
  EXPECT_NEAR(one.app_latency_ms.mean(), three.app_latency_ms.mean(),
              one.app_latency_ms.mean() * 0.35);
}


// ----------------------------------------------------------- prefetch

TEST(Prefetch, WarmsTheApCacheForADomain) {
  workload::AppSpec app = workload::make_movie_trailer();
  testbed::TestbedParams params;
  params.system = testbed::System::ApeCache;
  testbed::Testbed bed(params);
  bed.host_app(app);
  auto& phone = bed.add_client("phone");
  for (auto& spec : app.cacheables()) phone.runtime->register_cacheable(spec);

  std::size_t warmed = 0;
  phone.runtime->prefetch(app.domain, [&warmed](std::size_t n) { warmed = n; });
  bed.simulator().run();
  EXPECT_EQ(warmed, app.requests.size());
  EXPECT_EQ(bed.ap().data_cache().entry_count(), app.requests.size());

  // Foreground run after prefetch: every object is an AP hit.
  testbed::AppDriver driver(bed.simulator(), app, *phone.fetcher);
  testbed::AppRunResult result;
  driver.run_once([&result](testbed::AppRunResult r) { result = std::move(r); });
  bed.simulator().run();
  for (const auto& obj : result.objects) {
    EXPECT_EQ(obj.result.source, core::ClientRuntime::Source::ApCache)
        << obj.request_name;
  }
  EXPECT_LT(sim::to_millis(result.app_latency), 45.0);
}

TEST(Prefetch, EmptyDomainWarmsEverything) {
  workload::AppSpec movie = workload::make_movie_trailer();
  workload::AppSpec home = workload::make_virtual_home();
  testbed::Testbed bed(testbed::TestbedParams{});
  bed.host_app(movie);
  bed.host_app(home);
  auto& phone = bed.add_client("phone");
  for (auto& spec : movie.cacheables()) phone.runtime->register_cacheable(spec);
  for (auto& spec : home.cacheables()) phone.runtime->register_cacheable(spec);

  std::size_t warmed = 0;
  phone.runtime->prefetch("", [&warmed](std::size_t n) { warmed = n; });
  bed.simulator().run();
  EXPECT_EQ(warmed, movie.requests.size() + home.requests.size());
}

TEST(Prefetch, NoRegistrationsCompletesWithZero) {
  testbed::Testbed bed(testbed::TestbedParams{});
  auto& phone = bed.add_client("phone");
  bool called = false;
  phone.runtime->prefetch("nothing.example", [&called](std::size_t n) {
    called = true;
    EXPECT_EQ(n, 0u);
  });
  bed.simulator().run();
  EXPECT_TRUE(called);
}

// ---------------------------------------------------- negative caching

TEST(NegativeCache, NxDomainAnsweredFromCacheSecondTime) {
  testbed::Testbed bed(testbed::TestbedParams{});
  // Delegate a zone so the LDNS can reach an ADNS that NXDOMAINs.
  workload::AppSpec app = workload::make_movie_trailer();
  bed.host_app(app);
  auto& phone = bed.add_client("phone");

  auto lookup_missing = [&](double* ms) {
    bool done = false;
    const sim::Time start = bed.simulator().now();
    phone.runtime->regular_dns_lookup(
        "missing.api.movietrailer.app",
        [&](Result<dns::DnsMessage> r, sim::Duration d) {
          done = true;
          if (ms) *ms = sim::to_millis(d);
          // The AP turns the NXDOMAIN into ServFail for A lookups; either
          // way no address comes back.
          (void)r;
          (void)start;
        });
    bed.simulator().run();
    EXPECT_TRUE(done);
  };

  double cold = 0.0, warm = 0.0;
  lookup_missing(&cold);
  const std::size_t upstream_after_first = bed.ldns().upstream_queries();
  lookup_missing(&warm);
  // Second query must not recurse again: the negative cache answers.
  EXPECT_EQ(bed.ldns().upstream_queries(), upstream_after_first);
  EXPECT_EQ(bed.ldns().negative_cache_size(), 1u);
}

TEST(NegativeCache, ExpiresAfterNegativeTtl) {
  testbed::Testbed bed(testbed::TestbedParams{});
  workload::AppSpec app = workload::make_movie_trailer();
  bed.host_app(app);
  bed.ldns().set_negative_ttl(sim::seconds(5.0));
  auto& phone = bed.add_client("phone");

  auto lookup_missing = [&] {
    bool done = false;
    phone.runtime->regular_dns_lookup("gone.api.movietrailer.app",
                                      [&](Result<dns::DnsMessage>, sim::Duration) {
                                        done = true;
                                      });
    bed.simulator().run();
    EXPECT_TRUE(done);
  };
  lookup_missing();
  const auto first = bed.ldns().upstream_queries();
  bed.simulator().run_until(bed.simulator().now() + sim::seconds(6.0));
  lookup_missing();
  EXPECT_GT(bed.ldns().upstream_queries(), first);  // re-recursed after expiry
}

}  // namespace
}  // namespace ape
