// The testbed fixture and app driver themselves: topology wiring, DNS
// publication, DAG execution semantics (diamonds, critical-path gating),
// and the experiment harness.
#include <gtest/gtest.h>

#include <optional>
#include <set>

#include "testbed/experiment.hpp"
#include "workload/real_apps.hpp"

namespace ape::testbed {
namespace {

// ------------------------------------------------------------- testbed

TEST(TestbedWiring, CalibratedPathsMatchFig9) {
  TestbedParams params;
  Testbed bed(params);
  auto& topo = bed.network().topology();

  const auto ap = net::NodeId{0};
  const auto edge_node = *bed.network().owner_of(bed.edge_ip());
  const auto edge_path = topo.path(ap, edge_node);
  ASSERT_TRUE(edge_path.has_value());
  EXPECT_EQ(edge_path->hops, kEdgeHops);
  EXPECT_NEAR(sim::to_millis(edge_path->rtt()), 15.0, 1.0);  // ~2x7.5 ms

  // Clients sit one WiFi hop from the AP.
  auto& client = bed.add_client("probe");
  const auto wifi = topo.path(client.node, ap);
  ASSERT_TRUE(wifi.has_value());
  EXPECT_EQ(wifi->hops, 1u);
}

TEST(TestbedWiring, HostAppPublishesDomain) {
  Testbed bed(TestbedParams{});
  const auto app = workload::make_movie_trailer();
  bed.host_app(app);

  // The edge must hold every object...
  for (const auto& object : app.objects()) {
    EXPECT_NE(bed.edge().catalog().find(object.base_url), nullptr);
  }
  // ...and the domain must resolve through the AP to the edge.
  auto& client = bed.add_client("phone");
  core::ClientRuntime::FetchResult out;
  client.runtime->fetch_via_edge(app.requests[0].url,
                                 [&out](core::ClientRuntime::FetchResult r) { out = r; });
  bed.simulator().run();
  EXPECT_TRUE(out.success);
}

TEST(TestbedWiring, HostingAnAppTwiceIsRejected) {
  // The second host_app of a domain publishes nothing: a duplicate CNAME
  // would ride every ADNS answer for the app and slow its first lookup.
  const auto app = workload::make_movie_trailer();
  auto first_lookup = [&app](int hostings) {
    Testbed bed(TestbedParams{});
    EXPECT_TRUE(bed.host_app(app));
    for (int i = 1; i < hostings; ++i) EXPECT_FALSE(bed.host_app(app));
    auto& client = bed.add_client("phone");
    core::ClientRuntime::FetchResult out;
    client.runtime->fetch_via_edge(app.requests[0].url,
                                   [&out](core::ClientRuntime::FetchResult r) { out = r; });
    bed.simulator().run();
    EXPECT_TRUE(out.success);
    return out.lookup_latency;
  };
  EXPECT_EQ(first_lookup(1), first_lookup(2));
}

TEST(TestbedWiring, ClientsGetDistinctAddressesAndPorts) {
  Testbed bed(TestbedParams{});
  const auto app = workload::make_movie_trailer();
  bed.host_app(app);

  // More clients than a /24 holds: every one gets its own node and an
  // address of its own, never the AP's.
  constexpr std::size_t kClients = 300;
  std::set<std::uint32_t> nodes;
  std::set<std::uint32_t> addresses;
  Testbed::Client* last = nullptr;
  for (std::size_t i = 0; i < kClients; ++i) {
    last = &bed.add_client("c" + std::to_string(i));
    const auto ip = bed.network().ip_of(last->node);
    ASSERT_TRUE(ip.has_value());
    EXPECT_NE(*ip, bed.ap_ip()) << "client " << i;
    nodes.insert(last->node.value);
    addresses.insert(ip->v4);
  }
  EXPECT_EQ(nodes.size(), kClients);
  EXPECT_EQ(addresses.size(), kClients);

  // The last client is reachable: its fetch completes.
  for (const auto& spec : app.cacheables()) last->runtime->register_cacheable(spec);
  std::optional<core::ClientRuntime::FetchResult> result;
  last->fetcher->fetch_object(app.requests[0].url,
                              [&result](core::ClientRuntime::FetchResult r) {
                                result = std::move(r);
                              });
  bed.simulator().run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->success);
}

TEST(TestbedWiring, WiCacheComponentsOnlyForWiCacheSystem) {
  Testbed ape_bed(TestbedParams{});
  EXPECT_EQ(ape_bed.wicache_controller(), nullptr);
  EXPECT_EQ(ape_bed.wicache_agent(), nullptr);

  TestbedParams params;
  params.system = System::WiCache;
  Testbed wi_bed(params);
  EXPECT_NE(wi_bed.wicache_controller(), nullptr);
  EXPECT_NE(wi_bed.wicache_agent(), nullptr);
}

TEST(TestbedWiring, FetcherMatchesSystem) {
  for (auto [system, name] : {std::pair{System::ApeCache, "APE-CACHE"},
                              std::pair{System::ApeCacheLru, "APE-CACHE-LRU"},
                              std::pair{System::WiCache, "Wi-Cache"},
                              std::pair{System::EdgeCache, "Edge Cache"}}) {
    TestbedParams params;
    params.system = system;
    Testbed bed(params);
    EXPECT_EQ(bed.add_client("c").fetcher->system_name(), name);
  }
}

TEST(TestbedWiring, PassthroughChargesApCpu) {
  Testbed bed(TestbedParams{});
  const auto before = bed.ap().cpu().busy_time();
  bed.account_passthrough(100'000);
  bed.simulator().run();
  EXPECT_GT(bed.ap().cpu().busy_time(), before + sim::milliseconds(5));
}

// ----------------------------------------------------------- app driver

struct DriverFixture : ::testing::Test {
  std::unique_ptr<Testbed> bed;
  Testbed::Client* client = nullptr;

  void host(const workload::AppSpec& app) {
    bed = std::make_unique<Testbed>(TestbedParams{});
    bed->host_app(app);
    client = &bed->add_client("phone");
    for (auto& spec : app.cacheables()) client->runtime->register_cacheable(spec);
  }

  AppRunResult run(const workload::AppSpec& app) {
    AppRunResult out;
    AppDriver driver(bed->simulator(), app, *client->fetcher);
    driver.run_once([&out](AppRunResult r) { out = std::move(r); });
    bed->simulator().run();
    return out;
  }
};

workload::RequestSpec request_named(const std::string& domain, const std::string& name,
                                    int priority, std::vector<std::size_t> deps) {
  workload::RequestSpec r;
  r.name = name;
  r.url = "http://" + domain + "/" + name;
  r.size_bytes = 5'000;
  r.ttl_minutes = 30;
  r.priority = priority;
  r.retrieval_latency = sim::milliseconds(25);
  r.depends_on = std::move(deps);
  return r;
}

TEST_F(DriverFixture, ExecutesAllRequestsOnce) {
  const auto app = workload::make_movie_trailer();
  host(app);
  const auto result = run(app);
  EXPECT_EQ(result.fetches, app.requests.size());
  EXPECT_EQ(result.failures, 0u);
  EXPECT_EQ(result.objects.size(), app.requests.size());
}

TEST_F(DriverFixture, RespectsDiamondDependencies) {
  workload::AppSpec app;
  app.name = "diamond";
  app.id = 90;
  app.domain = "api.diamond.example";
  app.requests.push_back(request_named(app.domain, "root", 2, {}));
  app.requests.push_back(request_named(app.domain, "left", 1, {0}));
  app.requests.push_back(request_named(app.domain, "right", 1, {0}));
  app.requests.push_back(request_named(app.domain, "join", 2, {1, 2}));
  ASSERT_TRUE(app.valid());
  host(app);

  const auto result = run(app);
  EXPECT_EQ(result.fetches, 4u);
  // join must have been fetched last: its record appears after both
  // left and right in completion order.
  std::size_t join_pos = 99, left_pos = 99, right_pos = 99;
  for (std::size_t i = 0; i < result.objects.size(); ++i) {
    if (result.objects[i].request_name == "join") join_pos = i;
    if (result.objects[i].request_name == "left") left_pos = i;
    if (result.objects[i].request_name == "right") right_pos = i;
  }
  EXPECT_GT(join_pos, left_pos);
  EXPECT_GT(join_pos, right_pos);
}

TEST_F(DriverFixture, CriticalPathGatesAppLatencyNotMakespan) {
  // Critical chain (prio 2) is fast once cached; the slow low-priority
  // sibling extends the makespan but not the app latency.
  workload::AppSpec app;
  app.name = "gating";
  app.id = 91;
  app.domain = "api.gating.example";
  app.requests.push_back(request_named(app.domain, "id", 2, {}));
  auto slow = request_named(app.domain, "slow-extra", 1, {0});
  slow.size_bytes = 400'000;  // cacheable but heavy
  slow.retrieval_latency = sim::milliseconds(45);
  app.requests.push_back(std::move(slow));
  app.requests.push_back(request_named(app.domain, "hero", 2, {0}));
  host(app);

  run(app);  // warm-up (everything delegated)
  bed->simulator().run_until(bed->simulator().now() + sim::seconds(5.0));
  const auto warm = run(app);
  EXPECT_EQ(warm.failures, 0u);
  EXPECT_LE(warm.app_latency, warm.full_makespan);
  // Hero path is two AP hits (~30 ms); the 400 kB sibling takes longer to
  // move over WiFi.
  EXPECT_LT(sim::to_millis(warm.app_latency), 45.0);
}

TEST_F(DriverFixture, AppWithoutCriticalPathGatesOnEverything) {
  workload::AppSpec app;
  app.name = "flat";
  app.id = 92;
  app.domain = "api.flat.example";
  app.requests.push_back(request_named(app.domain, "a", 1, {}));
  app.requests.push_back(request_named(app.domain, "b", 1, {}));
  host(app);
  const auto result = run(app);
  EXPECT_EQ(result.app_latency, result.full_makespan);
}

TEST_F(DriverFixture, ConcurrentRunsOfTheSameDriverAreIndependent) {
  const auto app = workload::make_virtual_home();
  host(app);
  AppDriver driver(bed->simulator(), app, *client->fetcher);
  int done = 0;
  for (int i = 0; i < 5; ++i) {
    driver.run_once([&done](AppRunResult r) {
      EXPECT_EQ(r.failures, 0u);
      ++done;
    });
  }
  bed->simulator().run();
  EXPECT_EQ(done, 5);
}

// ------------------------------------------------------------ harness

TEST(ExperimentHarness, CollectsPerSourceHistograms) {
  std::vector<workload::AppSpec> apps{workload::make_movie_trailer()};
  WorkloadConfig config;
  config.duration = sim::minutes(5.0);
  const auto result = run_system(System::ApeCache, TestbedParams{}, apps, config);
  EXPECT_EQ(result.system, "APE-CACHE");
  EXPECT_EQ(result.object_fetches,
            result.ap_hit_lookup_ms.count() + result.edge_lookup_ms.count() +
                (result.object_fetches - result.ap_hit_lookup_ms.count() -
                 result.edge_lookup_ms.count()));
  EXPECT_GT(result.ap_hits, 0u);
  EXPECT_GT(result.high_priority_fetches, 0u);
}

TEST(ExperimentHarness, SeedChangesArrivals) {
  std::vector<workload::AppSpec> apps{workload::make_movie_trailer()};
  WorkloadConfig a, b;
  a.duration = b.duration = sim::minutes(5.0);
  a.seed = 1;
  b.seed = 2;
  const auto ra = run_system(System::ApeCache, TestbedParams{}, apps, a);
  const auto rb = run_system(System::ApeCache, TestbedParams{}, apps, b);
  EXPECT_NE(ra.app_latency_ms.sum(), rb.app_latency_ms.sum());
}

}  // namespace
}  // namespace ape::testbed
