// Client-runtime workflow: interception by base URL, flag-cache reuse,
// standalone vs piggybacked lookup, and fallback on stale flags.
#include <gtest/gtest.h>

#include <optional>

#include "common/url_hash.hpp"
#include "testbed/testbed.hpp"

namespace ape::core {
namespace {

using testbed::System;
using testbed::Testbed;
using testbed::TestbedParams;

workload::AppSpec pair_app() {
  workload::AppSpec app;
  app.name = "pair";
  app.id = 60;
  app.domain = "api.pair.example";
  for (const char* name : {"one", "two"}) {
    workload::RequestSpec r;
    r.name = name;
    r.url = "http://api.pair.example/" + std::string(name);
    r.size_bytes = 8'000;
    r.ttl_minutes = 30;
    r.priority = 1;
    r.retrieval_latency = sim::milliseconds(25);
    app.requests.push_back(std::move(r));
  }
  return app;
}

struct ClientFixture : ::testing::Test {
  std::unique_ptr<Testbed> bed;
  Testbed::Client* client = nullptr;
  workload::AppSpec app = pair_app();

  void build(System system, std::uint32_t cdn_ttl = 0) {
    TestbedParams params;
    params.system = system;
    params.cdn_answer_ttl = cdn_ttl;
    bed = std::make_unique<Testbed>(params);
    bed->host_app(app);
    client = &bed->add_client("phone");
    for (auto& spec : app.cacheables()) client->runtime->register_cacheable(spec);
  }

  ClientRuntime::FetchResult fetch(const std::string& url) {
    ClientRuntime::FetchResult out;
    client->runtime->fetch(url, [&out](ClientRuntime::FetchResult r) { out = std::move(r); });
    bed->simulator().run();
    return out;
  }
};

TEST_F(ClientFixture, UnregisteredUrlTakesEdgePath) {
  build(System::ApeCache);
  workload::AppSpec other;
  other.name = "other";
  other.id = 61;
  other.domain = "api.other.example";
  workload::RequestSpec r;
  r.name = "obj";
  r.url = "http://api.other.example/obj";
  r.size_bytes = 1'000;
  other.requests.push_back(r);
  bed->host_app(other);  // hosted but NOT registered as cacheable

  const auto result = fetch("http://api.other.example/obj");
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.source, ClientRuntime::Source::EdgeServer);
  EXPECT_EQ(bed->ap().delegations_performed(), 0u);
}

TEST_F(ClientFixture, QueryParametersDoNotChangeCacheIdentity) {
  build(System::ApeCache);
  ASSERT_TRUE(fetch("http://api.pair.example/one?session=1").success);
  const auto second = fetch("http://api.pair.example/one?session=2");
  ASSERT_TRUE(second.success);
  // Different query string, same base URL: still a cache hit.
  EXPECT_EQ(second.source, ClientRuntime::Source::ApCache);
}

TEST_F(ClientFixture, FlagsReusedWithinDnsTtl) {
  // A block-listed sibling forces real-IP answers (with a TTL), so the
  // client keeps the response flags and skips later DNS queries entirely.
  app.requests.push_back([] {
    workload::RequestSpec r;
    r.name = "big";
    r.url = "http://api.pair.example/big";
    r.size_bytes = 600'000;
    r.ttl_minutes = 30;
    return r;
  }());
  build(System::ApeCache, /*cdn_ttl=*/30);
  ASSERT_TRUE(fetch("http://api.pair.example/big").success);  // -> block list
  ASSERT_TRUE(fetch("http://api.pair.example/one").success);  // delegation; flags cached
  const auto hit = fetch("http://api.pair.example/one");
  ASSERT_TRUE(hit.success);
  EXPECT_EQ(hit.source, ClientRuntime::Source::ApCache);

  const auto reused = fetch("http://api.pair.example/one");
  ASSERT_TRUE(reused.success);
  EXPECT_TRUE(reused.lookup_from_cache);
  EXPECT_EQ(reused.lookup_latency.count(), 0);
}

TEST_F(ClientFixture, UnknownUrlUnderCachedDomainDefaultsToDelegation) {
  app.requests.push_back([] {
    workload::RequestSpec r;
    r.name = "big";
    r.url = "http://api.pair.example/big";
    r.size_bytes = 600'000;
    r.ttl_minutes = 30;
    return r;
  }());
  build(System::ApeCache, /*cdn_ttl=*/30);
  ASSERT_TRUE(fetch("http://api.pair.example/big").success);  // flags now cacheable
  ASSERT_TRUE(fetch("http://api.pair.example/one").success);
  // Flags for the domain are now cached client-side but say nothing about
  // "two": the client must treat it as Delegation.
  const auto result = fetch("http://api.pair.example/two");
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.source, ClientRuntime::Source::ApDelegated);
}

TEST_F(ClientFixture, StaleCacheHitFlagFallsBackToEdge) {
  // A block-listed sibling keeps the domain never-fully-cached, so DNS-Cache
  // responses carry a real IP + TTL and the client caches the flags.
  app.requests.push_back([] {
    workload::RequestSpec r;
    r.name = "big";
    r.url = "http://api.pair.example/big";
    r.size_bytes = 600'000;  // above the block threshold
    r.ttl_minutes = 30;
    r.priority = 1;
    return r;
  }());
  build(System::ApeCache, /*cdn_ttl=*/30);

  ASSERT_TRUE(fetch("http://api.pair.example/big").success);  // -> block list
  ASSERT_TRUE(fetch("http://api.pair.example/one").success);  // delegation
  // Let the cached flags (which still say Delegation for "one") expire.
  bed->simulator().run_until(bed->simulator().now() + sim::seconds(31.0));
  const auto hit = fetch("http://api.pair.example/one");  // fresh flags: Cache-Hit
  ASSERT_TRUE(hit.success);
  EXPECT_EQ(hit.flag, CacheFlag::CacheHit);
  EXPECT_FALSE(hit.lookup_from_cache);

  // Evict behind the client's back; its cached Cache-Hit flag is now stale.
  bed->ap().data_cache().erase(hash_url("http://api.pair.example/one"));

  const auto result = fetch("http://api.pair.example/one");
  ASSERT_TRUE(result.success);
  EXPECT_TRUE(result.lookup_from_cache);
  EXPECT_EQ(result.flag, CacheFlag::CacheHit);  // what the client believed
  EXPECT_EQ(result.source, ClientRuntime::Source::EdgeServer);  // where it really got it
}

TEST_F(ClientFixture, StandaloneLookupSlowerThanPiggybacked) {
  build(System::ApeCache);
  // Warm the AP cache first.
  ASSERT_TRUE(fetch("http://api.pair.example/one").success);
  ASSERT_TRUE(fetch("http://api.pair.example/two").success);

  const auto piggybacked = fetch("http://api.pair.example/one");
  ASSERT_TRUE(piggybacked.success);

  ClientRuntime::FetchResult standalone;
  client->runtime->fetch_standalone("http://api.pair.example/one",
                                    [&](ClientRuntime::FetchResult r) {
                                      standalone = std::move(r);
                                    });
  bed->simulator().run();
  ASSERT_TRUE(standalone.success);
  // Two sequential queries cost roughly one extra AP round trip (paper
  // Fig. 11b: ~7 ms more).
  const double delta =
      sim::to_millis(standalone.lookup_latency) - sim::to_millis(piggybacked.lookup_latency);
  EXPECT_GT(delta, 2.0);
}

TEST_F(ClientFixture, ApeDisabledFetchGoesToEdge) {
  build(System::EdgeCache);
  const auto result = fetch("http://api.pair.example/one");
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.source, ClientRuntime::Source::EdgeServer);
  EXPECT_GT(sim::to_millis(result.retrieval_latency), 20.0);
}

TEST_F(ClientFixture, BadUrlReportsError) {
  build(System::ApeCache);
  const auto result = fetch("not a url at all");
  EXPECT_FALSE(result.success);
  EXPECT_FALSE(result.error.empty());
}

// "a..b" is a host Url::parse accepts and DnsName::parse rejects: each
// entry point that resolves it reports an error instead of throwing.
TEST_F(ClientFixture, StandaloneFetchRejectsBadHostname) {
  build(System::ApeCache);
  CacheableSpec spec;
  spec.id = "http://a..b/x";
  spec.app = app.id;
  client->runtime->register_cacheable(spec);
  std::optional<ClientRuntime::FetchResult> result;
  ASSERT_NO_THROW(client->runtime->fetch_standalone(
      "http://a..b/x", [&result](ClientRuntime::FetchResult r) { result = std::move(r); }));
  bed->simulator().run();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->success);
  EXPECT_EQ(result->error, "bad hostname");
}

TEST_F(ClientFixture, DnsCacheLookupRejectsBadHostname) {
  build(System::ApeCache);
  std::optional<bool> ok;
  ASSERT_NO_THROW(client->runtime->dns_cache_lookup(
      "a..b", {hash_url("http://a..b/x")},
      [&ok](Result<dns::DnsMessage> r, sim::Duration) { ok = r.ok(); }));
  bed->simulator().run();
  ASSERT_TRUE(ok.has_value());
  EXPECT_FALSE(*ok);
}

TEST_F(ClientFixture, RegularDnsLookupRejectsBadHostname) {
  build(System::ApeCache);
  std::optional<bool> ok;
  ASSERT_NO_THROW(client->runtime->regular_dns_lookup(
      "a..b", [&ok](Result<dns::DnsMessage> r, sim::Duration) { ok = r.ok(); }));
  bed->simulator().run();
  ASSERT_TRUE(ok.has_value());
  EXPECT_FALSE(*ok);
}

TEST_F(ClientFixture, SourceNamesAreStable) {
  EXPECT_STREQ(to_string(ClientRuntime::Source::ApCache), "ap-cache");
  EXPECT_STREQ(to_string(ClientRuntime::Source::ApDelegated), "ap-delegated");
  EXPECT_STREQ(to_string(ClientRuntime::Source::EdgeServer), "edge");
  EXPECT_STREQ(to_string(ClientRuntime::Source::Unknown), "unknown");
}

TEST_F(ClientFixture, HitPathLatencyMatchesPaperBallpark) {
  build(System::ApeCache);
  ASSERT_TRUE(fetch("http://api.pair.example/one").success);
  ASSERT_TRUE(fetch("http://api.pair.example/two").success);
  const auto hit = fetch("http://api.pair.example/one");
  ASSERT_TRUE(hit.success);
  EXPECT_EQ(hit.source, ClientRuntime::Source::ApCache);
  // Paper: lookup ~7.5 ms, retrieval ~7 ms, total ~14 ms.
  EXPECT_NEAR(sim::to_millis(hit.lookup_latency), 7.5, 2.5);
  EXPECT_NEAR(sim::to_millis(hit.retrieval_latency), 7.0, 3.0);
  EXPECT_NEAR(sim::to_millis(hit.total), 14.2, 5.0);
}

TEST_F(ClientFixture, ConcurrentFetchesComplete) {
  build(System::ApeCache);
  int done = 0;
  for (int i = 0; i < 8; ++i) {
    client->runtime->fetch(i % 2 == 0 ? "http://api.pair.example/one"
                                      : "http://api.pair.example/two",
                           [&done](ClientRuntime::FetchResult r) {
                             EXPECT_TRUE(r.success);
                             ++done;
                           });
  }
  bed->simulator().run();
  EXPECT_EQ(done, 8);
}

}  // namespace
}  // namespace ape::core
