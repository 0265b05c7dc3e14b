// Cross-cutting property and stress suites: randomized inputs, invariant
// checks, structured round trips — the guarantees every module must keep
// regardless of workload.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "cache/object_store.hpp"
#include "core/pacm.hpp"
#include "core/pacm_policy.hpp"
#include "dns/codec.hpp"
#include "net/topology.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace ape {
namespace {

// ------------------------------------------------------ simulator storm

class SimulatorStorm : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimulatorStorm, TimeNeverRunsBackwardsUnderRandomScheduling) {
  sim::Simulator simulator;
  sim::Rng rng(GetParam());
  sim::Time last_seen{};
  std::size_t fired = 0;

  // Seed events that recursively schedule more events with random delays
  // and random cancellations.
  std::vector<sim::Simulator::EventId> cancellable;
  std::function<void(int)> chain = [&](int depth) {
    EXPECT_GE(simulator.now(), last_seen);
    last_seen = simulator.now();
    ++fired;
    if (depth <= 0) return;
    const int fanout = static_cast<int>(rng.uniform_int(1, 3));
    for (int i = 0; i < fanout; ++i) {
      const auto id = simulator.schedule_in(
          sim::microseconds(rng.uniform_int(0, 5000)), [&chain, depth] { chain(depth - 1); });
      if (rng.bernoulli(0.2)) cancellable.push_back(id);
    }
    if (!cancellable.empty() && rng.bernoulli(0.3)) {
      simulator.cancel(cancellable.back());
      cancellable.pop_back();
    }
  };
  for (int i = 0; i < 10; ++i) {
    simulator.schedule_in(sim::microseconds(rng.uniform_int(0, 1000)), [&chain] { chain(6); });
  }
  simulator.run();
  EXPECT_GT(fired, 10u);
  EXPECT_EQ(simulator.pending(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorStorm, ::testing::Values(1, 7, 42, 1337));

// -------------------------------------------------- topology invariants

class TopologyProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void build_random(net::Topology& topo, std::size_t nodes, sim::Rng& rng) {
    std::vector<net::NodeId> ids;
    for (std::size_t i = 0; i < nodes; ++i) {
      ids.push_back(topo.add_node("n" + std::to_string(i)));
    }
    // A spanning chain guarantees connectivity, plus random chords.
    for (std::size_t i = 1; i < nodes; ++i) {
      topo.add_link(ids[i - 1], ids[i],
                    net::LinkSpec{sim::microseconds(rng.uniform_int(100, 20'000)), 1e9});
    }
    const std::size_t chords = nodes;
    for (std::size_t c = 0; c < chords; ++c) {
      const auto a = ids[static_cast<std::size_t>(rng.uniform_int(0, nodes - 1))];
      const auto b = ids[static_cast<std::size_t>(rng.uniform_int(0, nodes - 1))];
      if (a != b) {
        topo.add_link(a, b,
                      net::LinkSpec{sim::microseconds(rng.uniform_int(100, 20'000)), 1e9});
      }
    }
  }
};

TEST_P(TopologyProperty, ShortestPathsAreSymmetricAndTriangular) {
  net::Topology topo;
  sim::Rng rng(GetParam());
  constexpr std::size_t kNodes = 12;
  build_random(topo, kNodes, rng);

  for (std::uint32_t a = 0; a < kNodes; ++a) {
    for (std::uint32_t b = 0; b < kNodes; ++b) {
      const auto ab = topo.path(net::NodeId{a}, net::NodeId{b});
      const auto ba = topo.path(net::NodeId{b}, net::NodeId{a});
      ASSERT_TRUE(ab.has_value());
      ASSERT_TRUE(ba.has_value());
      // Symmetric links -> symmetric distances.
      EXPECT_EQ(ab->one_way_latency, ba->one_way_latency);
      // Triangle inequality through every intermediate node.
      for (std::uint32_t via = 0; via < kNodes; ++via) {
        const auto av = topo.path(net::NodeId{a}, net::NodeId{via});
        const auto vb = topo.path(net::NodeId{via}, net::NodeId{b});
        ASSERT_TRUE(av && vb);
        EXPECT_LE(ab->one_way_latency.count(),
                  av->one_way_latency.count() + vb->one_way_latency.count());
      }
    }
  }
}

TEST_P(TopologyProperty, SelfDistanceZeroAndHopsConsistent) {
  net::Topology topo;
  sim::Rng rng(GetParam() + 100);
  build_random(topo, 10, rng);
  for (std::uint32_t a = 0; a < 10; ++a) {
    const auto self = topo.path(net::NodeId{a}, net::NodeId{a});
    ASSERT_TRUE(self.has_value());
    EXPECT_EQ(self->one_way_latency.count(), 0);
    EXPECT_EQ(self->hops, 0u);
    for (std::uint32_t b = 0; b < 10; ++b) {
      if (a == b) continue;
      const auto p = topo.path(net::NodeId{a}, net::NodeId{b});
      ASSERT_TRUE(p.has_value());
      EXPECT_GE(p->hops, 1u);
      EXPECT_GT(p->one_way_latency.count(), 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopologyProperty, ::testing::Values(3, 11, 29, 71));

// ------------------------------------------------ DNS structured fuzzing

class DnsRoundTripProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DnsRoundTripProperty, RandomMessagesSurviveTheWire) {
  sim::Rng rng(GetParam());
  auto random_name = [&rng] {
    std::string text;
    const int labels = static_cast<int>(rng.uniform_int(1, 4));
    for (int i = 0; i < labels; ++i) {
      if (i) text += '.';
      const int len = static_cast<int>(rng.uniform_int(1, 12));
      for (int j = 0; j < len; ++j) {
        text += static_cast<char>('a' + rng.uniform_int(0, 25));
      }
    }
    return dns::DnsName::parse(text).value();
  };

  for (int round = 0; round < 20; ++round) {
    dns::DnsMessage m;
    m.header.id = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
    m.header.qr = rng.bernoulli(0.5);
    m.header.rd = rng.bernoulli(0.5);
    m.header.aa = rng.bernoulli(0.3);
    m.header.rcode = static_cast<dns::Rcode>(rng.uniform_int(0, 5));

    const int questions = static_cast<int>(rng.uniform_int(1, 3));
    for (int q = 0; q < questions; ++q) {
      m.questions.push_back(
          dns::Question{random_name(), dns::RrType::A, dns::RrClass::In});
    }
    const int answers = static_cast<int>(rng.uniform_int(0, 5));
    for (int a = 0; a < answers; ++a) {
      if (rng.bernoulli(0.5)) {
        m.answers.push_back(dns::make_a_record(
            random_name(),
            net::IpAddress{static_cast<std::uint32_t>(rng.next_u64())},
            static_cast<std::uint32_t>(rng.uniform_int(0, 86400))));
      } else {
        m.answers.push_back(dns::make_cname_record(random_name(), random_name(),
                                                   static_cast<std::uint32_t>(
                                                       rng.uniform_int(0, 3600))));
      }
    }

    const auto decoded = dns::decode(dns::encode(m));
    ASSERT_TRUE(decoded.ok()) << decoded.error().message;
    EXPECT_EQ(decoded.value().header.id, m.header.id);
    EXPECT_EQ(decoded.value().header.qr, m.header.qr);
    EXPECT_EQ(decoded.value().header.rcode, m.header.rcode);
    EXPECT_EQ(decoded.value().questions, m.questions);
    EXPECT_EQ(decoded.value().answers, m.answers);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DnsRoundTripProperty,
                         ::testing::Values(5, 17, 101, 257, 65537));

// ------------------------------------------------------ PACM invariants

class PacmProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PacmProperty, DominatedTwinIsNeverPreferred) {
  // Pairs of objects identical except one attribute where A strictly
  // dominates B; if exactly one of a pair survives, it must be A.
  core::ApeConfig config;
  config.cache_capacity_bytes = 60'000;
  core::PacmSolver solver(config);
  sim::Rng rng(GetParam());

  std::vector<core::PacmObject> objects;
  std::vector<std::pair<UrlHash, UrlHash>> dominant_pairs;  // (better, worse)
  for (int p = 0; p < 6; ++p) {
    core::PacmObject base;
    base.app = static_cast<core::AppId>(p % 3);
    base.size_bytes = static_cast<std::size_t>(rng.uniform_int(4'000, 12'000));
    base.priority = 1;
    base.remaining_ttl_s = rng.uniform_real(60.0, 600.0);
    base.fetch_latency_ms = rng.uniform_real(20.0, 50.0);

    core::PacmObject better = base;
    better.key = static_cast<UrlHash>(p);  // "better<p>" < "worse<p>"
    core::PacmObject worse = base;
    worse.key = static_cast<UrlHash>(0x100 + p);
    switch (p % 3) {
      case 0: better.priority = 2; break;
      case 1: better.remaining_ttl_s = base.remaining_ttl_s * 2.0; break;
      case 2: better.fetch_latency_ms = base.fetch_latency_ms * 2.0; break;
    }
    objects.push_back(better);
    objects.push_back(worse);
    dominant_pairs.emplace_back(better.key, worse.key);
  }

  const auto decision = solver.select_evictions(
      objects, /*incoming=*/20'000, {{0, 2.0}, {1, 2.0}, {2, 2.0}});

  const auto evicted = [&](UrlHash key) {
    return std::find(decision.evict.begin(), decision.evict.end(), key) !=
           decision.evict.end();
  };
  for (const auto& [better, worse] : dominant_pairs) {
    // "Better evicted while worse kept" must never happen.  (Both kept or
    // both evicted is fine; knapsack may prefer the *smaller* of unequal
    // pairs, but these twins share their size.)
    EXPECT_FALSE(evicted(better) && !evicted(worse))
        << better << " evicted but " << worse << " kept";
  }
}

TEST_P(PacmProperty, StoreWithPacmNeverExceedsCapacityUnderChurn) {
  sim::Simulator simulator;
  core::ApeConfig config;
  config.cache_capacity_bytes = 100'000;
  core::FrequencyTracker freq(core::kAlpha, core::kFrequencyWindow);
  cache::CacheStore store(config.cache_capacity_bytes,
                          std::make_unique<core::PacmPolicy>(config, simulator, freq));
  sim::Rng rng(GetParam());

  for (int op = 0; op < 600; ++op) {
    const sim::Time now{sim::seconds(static_cast<double>(op))};
    const auto app = static_cast<core::AppId>(rng.uniform_int(0, 9));
    freq.record_request(app, now);

    cache::CacheEntry entry;
    entry.key = static_cast<UrlHash>(rng.uniform_int(0, 60));
    entry.size_bytes = static_cast<std::size_t>(rng.uniform_int(500, 30'000));
    entry.app_id = app;
    entry.priority = rng.bernoulli(0.4) ? 2 : 1;
    entry.expires = now + sim::seconds(rng.uniform_real(5.0, 600.0));
    entry.fetch_latency = sim::milliseconds(rng.uniform_real(20.0, 80.0));
    store.insert(std::move(entry), now);

    ASSERT_LE(store.used_bytes(), store.capacity_bytes());
    std::size_t total = 0;
    store.for_each([&](const cache::CacheEntry& e) { total += e.size_bytes; });
    ASSERT_EQ(total, store.used_bytes());
  }
  EXPECT_GT(store.evictions(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PacmProperty, ::testing::Values(2, 13, 47, 199));

// ----------------------------------------------- fairness sanity bounds

TEST(FairnessProperty, RepairNeverIncreasesFairnessAboveUnconstrained) {
  // With theta = 1.0 (never binding) the solver must behave as plain
  // knapsack; tightening theta can only lower (or keep) the final Gini.
  sim::Rng rng(31);
  std::vector<core::PacmObject> objects;
  for (int i = 0; i < 24; ++i) {
    core::PacmObject o;
    o.key = static_cast<UrlHash>(i);
    o.app = static_cast<core::AppId>(i % 4);
    o.size_bytes = static_cast<std::size_t>(rng.uniform_int(2'000, 20'000));
    o.priority = 1 + static_cast<int>(rng.uniform_int(0, 1));
    o.remaining_ttl_s = rng.uniform_real(30.0, 600.0);
    o.fetch_latency_ms = rng.uniform_real(20.0, 50.0);
    // Make app 0 hoard.
    if (o.app == 0) o.size_bytes *= 3;
    objects.push_back(std::move(o));
  }
  const std::vector<std::pair<core::AppId, double>> freqs{
      {0, 2.0}, {1, 2.0}, {2, 2.0}, {3, 2.0}};

  core::ApeConfig loose;
  loose.cache_capacity_bytes = 120'000;
  loose.fairness_theta = 1.0;
  core::ApeConfig tight = loose;
  tight.fairness_theta = 0.25;

  const auto unconstrained = core::PacmSolver(loose).select_evictions(objects, 10'000, freqs);
  const auto constrained = core::PacmSolver(tight).select_evictions(objects, 10'000, freqs);

  EXPECT_EQ(unconstrained.repair_rounds, 0);
  if (constrained.fairness_satisfied) {
    EXPECT_LE(constrained.fairness, 0.25 + 1e-9);
  }
  EXPECT_LE(constrained.kept_utility, unconstrained.kept_utility + 1e-9);
}

}  // namespace
}  // namespace ape
