// Baseline systems: Wi-Cache (controller + agent + fetcher), Edge Cache,
// APE-CACHE-LRU configuration.
#include <gtest/gtest.h>

#include "testbed/testbed.hpp"

namespace ape::baselines {
namespace {

using core::ClientRuntime;
using testbed::System;
using testbed::Testbed;
using testbed::TestbedParams;

workload::AppSpec simple_app() {
  workload::AppSpec app;
  app.name = "simple";
  app.id = 70;
  app.domain = "api.simple.example";
  workload::RequestSpec r;
  r.name = "obj";
  r.url = "http://api.simple.example/obj";
  r.size_bytes = 12'000;
  r.ttl_minutes = 30;
  r.priority = 2;
  r.retrieval_latency = sim::milliseconds(25);
  app.requests.push_back(std::move(r));
  return app;
}

struct BaselineFixture : ::testing::Test {
  std::unique_ptr<Testbed> bed;
  Testbed::Client* client = nullptr;
  workload::AppSpec app = simple_app();

  void build(System system) {
    TestbedParams params;
    params.system = system;
    bed = std::make_unique<Testbed>(params);
    bed->host_app(app);
    client = &bed->add_client("phone");
    for (auto& spec : app.cacheables()) client->runtime->register_cacheable(spec);
  }

  ClientRuntime::FetchResult fetch_object() {
    ClientRuntime::FetchResult out;
    client->fetcher->fetch_object(app.requests[0].url,
                                  [&out](ClientRuntime::FetchResult r) { out = std::move(r); });
    bed->simulator().run();
    return out;
  }
};

// ---------------------------------------------------------------- Wi-Cache

TEST_F(BaselineFixture, WiCacheFirstLookupGoesToEdge) {
  build(System::WiCache);
  const auto result = fetch_object();
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.source, ClientRuntime::Source::EdgeServer);
  // Lookup = one WAN round trip to the EC2 controller (12 hops, ~26 ms).
  EXPECT_GT(sim::to_millis(result.lookup_latency), 20.0);
  ASSERT_NE(bed->wicache_controller(), nullptr);
  EXPECT_EQ(bed->wicache_controller()->lookups(), 1u);
}

TEST_F(BaselineFixture, WiCachePrefetchMakesSecondRequestAnApHit) {
  build(System::WiCache);
  ASSERT_TRUE(fetch_object().success);      // miss -> controller prefetches
  bed->simulator().run();                    // let the prefetch settle
  ASSERT_NE(bed->wicache_agent(), nullptr);
  EXPECT_EQ(bed->wicache_agent()->store().entry_count(), 1u);
  EXPECT_EQ(bed->wicache_controller()->registry_size(), 1u);

  const auto second = fetch_object();
  ASSERT_TRUE(second.success);
  EXPECT_EQ(second.source, ClientRuntime::Source::ApCache);
  // Retrieval from the AP is millisecond-level; lookup still pays the
  // controller round trip (the architectural difference vs APE-CACHE).
  EXPECT_LT(sim::to_millis(second.retrieval_latency), 12.0);
  EXPECT_GT(sim::to_millis(second.lookup_latency), 20.0);
}

TEST_F(BaselineFixture, WiCacheEvictionUpdatesControllerRegistry) {
  build(System::WiCache);
  ASSERT_TRUE(fetch_object().success);
  bed->simulator().run();
  ASSERT_EQ(bed->wicache_controller()->registry_size(), 1u);

  // Force eviction at the agent; the REMOVE report must reach EC2.
  const auto entries = bed->wicache_agent()->store().entries();
  ASSERT_FALSE(entries.empty());
  const_cast<cache::CacheStore&>(bed->wicache_agent()->store()).erase(entries[0]->key);
  bed->simulator().run();
  EXPECT_EQ(bed->wicache_controller()->registry_size(), 0u);
}

TEST_F(BaselineFixture, WiCacheStaleRegistryRecovers) {
  build(System::WiCache);
  ASSERT_TRUE(fetch_object().success);
  bed->simulator().run();

  // Make the registry stale: drop the object at the agent but intercept
  // the REMOVE by clearing after the report settles, then re-adding a
  // phantom registry entry is impossible from outside — instead simulate
  // the race by erasing and immediately fetching before the report lands.
  const auto entries = bed->wicache_agent()->store().entries();
  ASSERT_FALSE(entries.empty());
  const UrlHash key = entries[0]->key;
  ClientRuntime::FetchResult out;
  client->fetcher->fetch_object(app.requests[0].url,
                                [&out](ClientRuntime::FetchResult r) { out = std::move(r); });
  // Erase while the lookup is in flight: controller will answer "AP" from
  // its soon-to-be-stale registry.
  const_cast<cache::CacheStore&>(bed->wicache_agent()->store()).erase(key);
  bed->simulator().run();
  ASSERT_TRUE(out.success);
  // Fallback re-consulted the controller and went to the edge.
  EXPECT_EQ(out.source, ClientRuntime::Source::EdgeServer);
}

// -------------------------------------------------------------- Edge Cache

TEST_F(BaselineFixture, EdgeCacheAlwaysPaysWanLatency) {
  build(System::EdgeCache);
  const auto first = fetch_object();
  const auto second = fetch_object();
  ASSERT_TRUE(first.success);
  ASSERT_TRUE(second.success);
  EXPECT_EQ(second.source, ClientRuntime::Source::EdgeServer);
  // No AP caching: both fetches cost tens of milliseconds.
  EXPECT_GT(sim::to_millis(second.total), 40.0);
}

TEST_F(BaselineFixture, EdgeFetcherNameIsStable) {
  build(System::EdgeCache);
  EXPECT_EQ(client->fetcher->system_name(), "Edge Cache");
}

// ----------------------------------------------------------- APE-CACHE-LRU

TEST_F(BaselineFixture, ApeLruUsesLruPolicyOnAp) {
  build(System::ApeCacheLru);
  EXPECT_EQ(bed->ap().data_cache().policy().name(), "LRU");
  const auto first = fetch_object();
  ASSERT_TRUE(first.success);
  EXPECT_EQ(first.source, ClientRuntime::Source::ApDelegated);
  const auto second = fetch_object();
  ASSERT_TRUE(second.success);
  EXPECT_EQ(second.source, ClientRuntime::Source::ApCache);
}

TEST_F(BaselineFixture, ApeUsesPacmPolicyOnAp) {
  build(System::ApeCache);
  EXPECT_EQ(bed->ap().data_cache().policy().name(), "PACM");
}

TEST_F(BaselineFixture, MakeApeLruOptionsFlipsPolicyOnly) {
  core::ApRuntime::Options base;
  base.policy = core::ApRuntime::Policy::Pacm;
  base.enable_ape = true;
  const auto lru = make_ape_lru_options(base);
  EXPECT_EQ(lru.policy, core::ApRuntime::Policy::Lru);
  EXPECT_TRUE(lru.enable_ape);
}

TEST_F(BaselineFixture, SystemNamesMatchPaper) {
  EXPECT_STREQ(testbed::to_string(System::ApeCache), "APE-CACHE");
  EXPECT_STREQ(testbed::to_string(System::ApeCacheLru), "APE-CACHE-LRU");
  EXPECT_STREQ(testbed::to_string(System::WiCache), "Wi-Cache");
  EXPECT_STREQ(testbed::to_string(System::EdgeCache), "Edge Cache");
}

}  // namespace
}  // namespace ape::baselines
