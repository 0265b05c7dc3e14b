// PACM: the knapsack solver, the utility/fairness formulation, the
// fairness-repair loop, and the CacheStore policy adapter.
#include <gtest/gtest.h>

#include "cache/object_store.hpp"
#include "core/knapsack.hpp"
#include "core/pacm.hpp"
#include "core/pacm_policy.hpp"
#include "knapsack_oracle.hpp"
#include "obs/observer.hpp"
#include "sim/rng.hpp"

namespace ape::core {
namespace {

// ------------------------------------------------------------- knapsack

TEST(Knapsack, EmptyInput) {
  const auto result = solve_knapsack({}, 1000);
  EXPECT_TRUE(result.selected.empty());
  EXPECT_DOUBLE_EQ(result.total_value, 0.0);
}

TEST(Knapsack, AllFitWhenUnderCapacity) {
  std::vector<KnapsackItem> items{{1.0, 1000}, {2.0, 2000}, {3.0, 3000}};
  const auto result = solve_knapsack(items, 100'000);
  EXPECT_EQ(result.selected, (std::vector<bool>{true, true, true}));
  EXPECT_DOUBLE_EQ(result.total_value, 6.0);
}

TEST(Knapsack, PicksOptimalSubset) {
  // Capacity 10 kB; the greedy-by-density answer (item 0) is suboptimal.
  std::vector<KnapsackItem> items{
      {60.0, 5 * 1024},   // density 12/kB
      {55.0, 5 * 1024},   // density 11
      {56.0, 5 * 1024},   // density 11.2
  };
  const auto result = solve_knapsack(items, 10 * 1024);
  EXPECT_TRUE(result.exact);
  // Best pair: 60 + 56 = 116.
  EXPECT_DOUBLE_EQ(result.total_value, 116.0);
  EXPECT_TRUE(result.selected[0]);
  EXPECT_FALSE(result.selected[1]);
  EXPECT_TRUE(result.selected[2]);
}

TEST(Knapsack, ClassicDpInstance) {
  // Weights in kB units; values chosen so DP must mix.
  std::vector<KnapsackItem> items{
      {10.0, 5 * 1024}, {40.0, 4 * 1024}, {30.0, 6 * 1024}, {50.0, 3 * 1024}};
  const auto result = solve_knapsack(items, 10 * 1024);
  EXPECT_DOUBLE_EQ(result.total_value, 90.0);  // items 1 + 3
}

TEST(Knapsack, RespectsCapacityExactly) {
  std::vector<KnapsackItem> items{{5.0, 4096}, {5.0, 4096}, {5.0, 4096}};
  const auto result = solve_knapsack(items, 8192);
  EXPECT_LE(result.total_weight, 8192u);
  EXPECT_DOUBLE_EQ(result.total_value, 10.0);
}

TEST(Knapsack, OversizedItemNeverSelected) {
  std::vector<KnapsackItem> items{{100.0, 50'000}, {1.0, 100}};
  const auto result = solve_knapsack(items, 10'000);
  EXPECT_FALSE(result.selected[0]);
  EXPECT_TRUE(result.selected[1]);
}

TEST(Knapsack, GreedyFallbackWhenOverBudget) {
  std::vector<KnapsackItem> items(100, KnapsackItem{1.0, 1024});
  const auto result = solve_knapsack(items, 50 * 1024, /*dp_budget=*/10);
  EXPECT_FALSE(result.exact);
  EXPECT_LE(result.total_weight, 50u * 1024u);
  EXPECT_NEAR(result.total_value, 50.0, 1.0);
}

TEST(Knapsack, GreedyTiesKeepInputOrder) {
  // Equal densities: the greedy keeps the first 50 in input order.
  std::vector<KnapsackItem> items(100, KnapsackItem{1.0, 1024});
  const auto result = solve_knapsack(items, 50 * 1024, /*dp_budget=*/1);
  ASSERT_FALSE(result.exact);
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(result.selected[i], i < 50) << "item " << i;
  }
}

TEST(Knapsack, GreedyPrefersDenseItems) {
  std::vector<KnapsackItem> items{{100.0, 10 * 1024}, {5.0, 1024}, {1.0, 1024}};
  const auto result = solve_knapsack(items, 11 * 1024, /*dp_budget=*/1);
  EXPECT_TRUE(result.selected[0]);
  EXPECT_TRUE(result.selected[1]);
  EXPECT_FALSE(result.selected[2]);
}

// Property: DP beats-or-matches greedy on random instances, and both
// respect capacity.
class KnapsackProperty : public ::testing::TestWithParam<int> {};

TEST_P(KnapsackProperty, DpDominatesGreedy) {
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::vector<KnapsackItem> items;
  const int n = static_cast<int>(rng.uniform_int(1, 30));
  for (int i = 0; i < n; ++i) {
    items.push_back(KnapsackItem{rng.uniform_real(0.1, 100.0),
                                 static_cast<std::size_t>(rng.uniform_int(512, 50'000))});
  }
  const std::size_t capacity = static_cast<std::size_t>(rng.uniform_int(10'000, 200'000));
  const auto dp = solve_knapsack(items, capacity);
  const auto greedy = solve_knapsack(items, capacity, /*dp_budget=*/1);
  EXPECT_TRUE(dp.exact);
  EXPECT_FALSE(greedy.exact);
  // DP is exact at 1 kB granularity; the byte-exact greedy can squeeze a
  // touch more in at quantization boundaries, never dominate outright.
  EXPECT_GE(dp.total_value + 1e-9, greedy.total_value * 0.9);
  EXPECT_LE(dp.total_weight, capacity);
  EXPECT_LE(greedy.total_weight, capacity);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KnapsackProperty, ::testing::Range(1, 21));

// Property: the windowed DP equals the full-table oracle field for field,
// total_value included with ==.  Each seed draws 100 instances cycling
// through the regimes below, so the 20 seeds cover 2,000 instances.
struct KnapsackInstance {
  std::vector<KnapsackItem> items;
  std::size_t capacity = 0;
};

std::size_t total_bytes(const std::vector<KnapsackItem>& items) {
  std::size_t sum = 0;
  for (const auto& item : items) sum += item.weight;
  return sum;
}

std::size_t draw(sim::Rng& rng, std::int64_t lo, std::int64_t hi) {
  return static_cast<std::size_t>(rng.uniform_int(lo, hi));
}

KnapsackInstance draw_instance(int regime, sim::Rng& rng) {
  KnapsackInstance in;
  switch (regime) {
    case 0:
    case 1: {  // the AP at capacity: 20-320 objects of 1-100 kB, 0-150 kB over
      const std::size_t n = draw(rng, 20, 320);
      for (std::size_t i = 0; i < n; ++i) {
        in.items.push_back({rng.uniform_real(0.0, 1e6), draw(rng, 1'000, 100'000)});
      }
      const std::size_t over = draw(rng, 0, 150'000);
      const std::size_t sum = total_bytes(in.items);
      in.capacity = sum > over ? sum - over : 0;
      break;
    }
    case 2: {  // AP regime with runs of equal values and whole-kB sizes
      const std::size_t n = draw(rng, 20, 320);
      while (in.items.size() < n) {
        const double value = static_cast<double>(draw(rng, 0, 4));
        for (std::size_t run = draw(rng, 1, 12); run > 0 && in.items.size() < n; --run) {
          in.items.push_back({value, 1024 * draw(rng, 1, 100)});
        }
      }
      const std::size_t over = draw(rng, 0, 150'000);
      const std::size_t sum = total_bytes(in.items);
      in.capacity = sum > over ? sum - over : 0;
      break;
    }
    case 3: {  // small instances, any capacity up to twice the total
      for (std::size_t n = draw(rng, 1, 40); n > 0; --n) {
        in.items.push_back({rng.uniform_real(0.0, 100.0), draw(rng, 1, 30'000)});
      }
      in.capacity = draw(rng, 0, 2 * static_cast<std::int64_t>(total_bytes(in.items)));
      break;
    }
    case 4: {  // zero weights and zero values mixed in
      for (std::size_t n = draw(rng, 1, 40); n > 0; --n) {
        const std::size_t weight = rng.bernoulli(0.25) ? 0 : draw(rng, 1, 30'000);
        const double value = rng.bernoulli(0.25) ? 0.0 : rng.uniform_real(0.0, 100.0);
        in.items.push_back({value, weight});
      }
      in.capacity = draw(rng, 0, static_cast<std::int64_t>(total_bytes(in.items)));
      break;
    }
    case 5: {  // items larger than the capacity
      in.capacity = draw(rng, 1, 60'000);
      for (std::size_t n = draw(rng, 1, 40); n > 0; --n) {
        const std::size_t weight = rng.bernoulli(0.3) ? in.capacity + draw(rng, 1, 50'000)
                                                      : draw(rng, 1, 20'000);
        in.items.push_back({rng.uniform_real(0.0, 100.0), weight});
      }
      break;
    }
    case 6: {  // all fit, or an exact fit of a random subset
      for (std::size_t n = draw(rng, 1, 40); n > 0; --n) {
        in.items.push_back({rng.uniform_real(0.0, 100.0), draw(rng, 1, 20'000)});
      }
      if (rng.bernoulli(0.5)) {
        in.capacity = total_bytes(in.items) + draw(rng, 0, 4'096);
      } else {
        for (const auto& item : in.items) {
          if (rng.bernoulli(0.5)) in.capacity += item.weight;
        }
      }
      break;
    }
    default: {  // capacity 0: only zero-weight items can stay
      for (std::size_t n = draw(rng, 1, 20); n > 0; --n) {
        const std::size_t weight = rng.bernoulli(0.4) ? 0 : draw(rng, 1, 5'000);
        in.items.push_back({rng.uniform_real(0.0, 10.0), weight});
      }
      break;
    }
  }
  return in;
}

class KnapsackOracleProperty : public ::testing::TestWithParam<int> {};

TEST_P(KnapsackOracleProperty, WindowedDpMatchesFullTable) {
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (int k = 0; k < 100; ++k) {
    const KnapsackInstance in = draw_instance(k % 8, rng);
    const auto got = solve_knapsack(in.items, in.capacity);
    const auto want = oracle::full_table_knapsack(in.items, in.capacity);
    EXPECT_EQ(got.exact, want.exact) << "instance " << k;  // the oracle is always exact
    EXPECT_EQ(got.selected, want.selected) << "instance " << k;
    EXPECT_EQ(got.total_weight, want.total_weight) << "instance " << k;
    EXPECT_EQ(got.total_value, want.total_value) << "instance " << k;
  }
}

// PACM reuses one workspace across solves, so each solve finds the last
// one's rows, dp and taken cells in it.  Over a mixed sequence of
// instances, exact and greedy solves on one workspace must give what
// one-shot solves on fresh workspaces give (which the test above holds to
// the oracle).
TEST_P(KnapsackOracleProperty, ReusedWorkspaceMatchesFreshSolves) {
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()));
  KnapsackWorkspace workspace;
  for (int k = 0; k < 100; ++k) {
    const KnapsackInstance in = draw_instance(k % 8, rng);
    const auto want = solve_knapsack(in.items, in.capacity);
    const KnapsackResult& got = solve_knapsack(in.items, in.capacity, 40'000'000, workspace);
    EXPECT_TRUE(got.exact) << "instance " << k;
    EXPECT_EQ(got.selected, want.selected) << "instance " << k;
    EXPECT_EQ(got.total_weight, want.total_weight) << "instance " << k;
    EXPECT_EQ(got.total_value, want.total_value) << "instance " << k;

    const auto fresh = solve_knapsack(in.items, in.capacity, /*dp_budget=*/1);
    const KnapsackResult& greedy = solve_knapsack(in.items, in.capacity, 1, workspace);
    EXPECT_EQ(greedy.selected, fresh.selected) << "instance " << k;
    EXPECT_EQ(greedy.total_weight, fresh.total_weight) << "instance " << k;
    EXPECT_EQ(greedy.total_value, fresh.total_value) << "instance " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KnapsackOracleProperty, ::testing::Range(1, 21));

// ----------------------------------------------------------- PacmSolver

PacmObject object(UrlHash key, AppId app, std::size_t size, int priority, double ttl_s,
                  double latency_ms) {
  PacmObject o;
  o.key = key;
  o.app = app;
  o.size_bytes = size;
  o.priority = priority;
  o.remaining_ttl_s = ttl_s;
  o.fetch_latency_ms = latency_ms;
  return o;
}

TEST(PacmSolver, UtilityIsPaperFormula) {
  const auto o = object(1, 1, 1000, 2, 600.0, 30.0);
  // U = R * e * l * p = 3 * 600 * 30 * 2.
  EXPECT_DOUBLE_EQ(PacmSolver::utility(o, 3.0), 3.0 * 600.0 * 30.0 * 2.0);
}

TEST(PacmSolver, UtilityClampsZeroFrequency) {
  const auto o = object(1, 1, 1000, 1, 100.0, 10.0);
  EXPECT_GT(PacmSolver::utility(o, 0.0), 0.0);
}

TEST(PacmSolver, EmptyCacheNeedsNoEvictions) {
  ApeConfig config;
  PacmSolver solver(config);
  const auto decision = solver.select_evictions({}, 1000, {});
  EXPECT_TRUE(decision.evict.empty());
}

TEST(PacmSolver, EvictsLowestUtilityUnderPressure) {
  ApeConfig config;
  config.cache_capacity_bytes = 10'000;
  PacmSolver solver(config);

  constexpr UrlHash kHigh = 1, kLow = 2;  // "high" < "low"
  std::vector<PacmObject> cached{
      object(kHigh, 1, 5'000, 2, 1000.0, 40.0),
      object(kLow, 2, 5'000, 1, 10.0, 5.0),
  };
  // Incoming 5 kB object: one of the two must go.
  const auto decision = solver.select_evictions(cached, 5'000,
                                                {{1, 3.0}, {2, 3.0}});
  ASSERT_EQ(decision.evict.size(), 1u);
  EXPECT_EQ(decision.evict[0], kLow);
}

TEST(PacmSolver, KeepsEverythingWhenRoomRemains) {
  ApeConfig config;
  config.cache_capacity_bytes = 100'000;
  PacmSolver solver(config);
  std::vector<PacmObject> cached{
      object(1, 1, 10'000, 1, 100.0, 10.0),
      object(2, 2, 10'000, 1, 100.0, 10.0),
  };
  const auto decision = solver.select_evictions(cached, 10'000, {{1, 1.0}, {2, 1.0}});
  EXPECT_TRUE(decision.evict.empty());
}

TEST(PacmSolver, PriorityBreaksTies) {
  ApeConfig config;
  config.cache_capacity_bytes = 10'000;
  PacmSolver solver(config);
  constexpr UrlHash kHighPrio = 1, kLowPrio = 2;  // "high-prio" < "low-prio"
  std::vector<PacmObject> cached{
      object(kLowPrio, 1, 5'000, 1, 300.0, 30.0),
      object(kHighPrio, 2, 5'000, 2, 300.0, 30.0),
  };
  const auto decision = solver.select_evictions(cached, 5'000, {{1, 2.0}, {2, 2.0}});
  ASSERT_EQ(decision.evict.size(), 1u);
  EXPECT_EQ(decision.evict[0], kLowPrio);
}

TEST(PacmSolver, FairnessOfSingleAppIsZero) {
  std::vector<PacmObject> objects{object(1, 1, 1000, 1, 1.0, 1.0)};
  EXPECT_DOUBLE_EQ(PacmSolver::fairness(objects, {true}, {{1, 1.0}}), 0.0);
}

TEST(PacmSolver, FairnessDetectsHoarding) {
  // Two apps, same frequency, one holds 10x the bytes.
  std::vector<PacmObject> objects{
      object(1, 1, 100'000, 1, 1.0, 1.0),
      object(2, 2, 10'000, 1, 1.0, 1.0),
  };
  const double f =
      PacmSolver::fairness(objects, {true, true}, {{1, 1.0}, {2, 1.0}});
  EXPECT_GT(f, 0.4);
}

TEST(PacmSolver, FairnessRepairEngagesWhenViolated) {
  ApeConfig config;
  config.cache_capacity_bytes = 120'000;
  config.fairness_theta = 0.2;
  PacmSolver solver(config);

  // App 1 hoards: 4 big high-utility objects; app 2 has one small one.
  std::vector<PacmObject> cached;
  for (int i = 0; i < 4; ++i) {
    cached.push_back(
        object(static_cast<UrlHash>(1 + i), 1, 25'000, 2, 1000.0, 50.0));  // "big<i>"
  }
  cached.push_back(object(5, 2, 2'000, 1, 100.0, 10.0));  // "small"

  const auto decision = solver.select_evictions(cached, 10'000, {{1, 3.0}, {2, 3.0}});
  // Repair must have run at least once and the final packing satisfy theta
  // (or be declared unsatisfiable).
  if (decision.fairness_satisfied) {
    EXPECT_LE(decision.fairness, config.fairness_theta + 1e-9);
  }
  EXPECT_GT(decision.repair_rounds + (decision.fairness_satisfied ? 0 : 1), 0);
  // App 1 must have lost at least one object to fairness.
  EXPECT_FALSE(decision.evict.empty());
}

TEST(PacmSolver, KeptBytesRespectCapacityMinusIncoming) {
  ApeConfig config;
  config.cache_capacity_bytes = 50'000;
  PacmSolver solver(config);
  sim::Rng rng(3);
  std::vector<PacmObject> cached;
  for (int i = 0; i < 20; ++i) {
    cached.push_back(object(static_cast<UrlHash>(i), static_cast<AppId>(i % 4),
                            static_cast<std::size_t>(rng.uniform_int(1000, 9000)),
                            1 + static_cast<int>(rng.uniform_int(0, 1)),
                            rng.uniform_real(10.0, 3000.0), rng.uniform_real(5.0, 50.0)));
  }
  const std::size_t incoming = 8'000;
  const auto decision = solver.select_evictions(
      cached, incoming, {{0, 1.0}, {1, 2.0}, {2, 3.0}, {3, 4.0}});

  std::size_t kept_bytes = 0;
  for (const auto& o : cached) {
    bool evicted = false;
    for (const auto& key : decision.evict) evicted |= (key == o.key);
    if (!evicted) kept_bytes += o.size_bytes;
  }
  EXPECT_LE(kept_bytes, config.cache_capacity_bytes - incoming);
}

// ----------------------------------------------------------- PacmPolicy

TEST(PacmPolicy, IntegratesWithCacheStore) {
  sim::Simulator sim;
  ApeConfig config;
  config.cache_capacity_bytes = 10'000;
  FrequencyTracker freq(kAlpha, kFrequencyWindow);
  cache::CacheStore store(config.cache_capacity_bytes,
                          std::make_unique<PacmPolicy>(config, sim, freq));

  auto make_entry = [&sim](UrlHash key, std::size_t size, int priority,
                           AppId app, double ttl_s, double latency_ms) {
    cache::CacheEntry e;
    e.key = key;
    e.size_bytes = size;
    e.priority = priority;
    e.app_id = app;
    e.expires = sim.now() + sim::seconds(ttl_s);
    e.fetch_latency = sim::milliseconds(latency_ms);
    return e;
  };

  freq.record_request(1, sim.now());
  freq.record_request(2, sim.now());

  constexpr UrlHash kCheap = 1, kIncoming = 2, kValuable = 3;  // in name order
  EXPECT_EQ(store.insert(make_entry(kValuable, 5'000, 2, 1, 3000.0, 45.0), sim.now()),
            cache::CacheStore::InsertOutcome::Inserted);
  EXPECT_EQ(store.insert(make_entry(kCheap, 5'000, 1, 2, 30.0, 5.0), sim.now()),
            cache::CacheStore::InsertOutcome::Inserted);
  // A third object forces PACM to choose: "cheap" must be the victim.
  EXPECT_EQ(store.insert(make_entry(kIncoming, 5'000, 2, 1, 3000.0, 45.0), sim.now()),
            cache::CacheStore::InsertOutcome::Inserted);
  EXPECT_NE(store.lookup_any(kValuable), nullptr);
  EXPECT_EQ(store.lookup_any(kCheap), nullptr);
  EXPECT_NE(store.lookup_any(kIncoming), nullptr);
  EXPECT_LE(store.used_bytes(), store.capacity_bytes());

  const auto& policy = static_cast<const PacmPolicy&>(store.policy());
  EXPECT_EQ(policy.invocations(), 1u);
  EXPECT_EQ(policy.name(), "PACM");
}

TEST(PacmPolicy, ExpiredObjectsHaveZeroUtilityAndGoFirst) {
  sim::Simulator sim;
  ApeConfig config;
  config.cache_capacity_bytes = 10'000;
  FrequencyTracker freq(kAlpha, kFrequencyWindow);
  cache::CacheStore store(config.cache_capacity_bytes,
                          std::make_unique<PacmPolicy>(config, sim, freq));

  constexpr UrlHash kDying = 1, kHealthy = 2, kIncoming = 3;  // in name order
  cache::CacheEntry nearly_dead;
  nearly_dead.key = kDying;
  nearly_dead.size_bytes = 5'000;
  nearly_dead.priority = 2;
  nearly_dead.app_id = 1;
  nearly_dead.expires = sim.now() + sim::seconds(1.0);
  nearly_dead.fetch_latency = sim::milliseconds(50.0);
  store.insert(std::move(nearly_dead), sim.now());

  cache::CacheEntry healthy;
  healthy.key = kHealthy;
  healthy.size_bytes = 5'000;
  healthy.priority = 1;
  healthy.app_id = 2;
  healthy.expires = sim.now() + sim::seconds(3000.0);
  healthy.fetch_latency = sim::milliseconds(20.0);
  store.insert(std::move(healthy), sim.now());

  cache::CacheEntry incoming;
  incoming.key = kIncoming;
  incoming.size_bytes = 5'000;
  incoming.priority = 1;
  incoming.app_id = 3;
  incoming.expires = sim.now() + sim::seconds(3000.0);
  incoming.fetch_latency = sim::milliseconds(20.0);
  store.insert(std::move(incoming), sim.now());

  EXPECT_EQ(store.lookup_any(kDying), nullptr);
  EXPECT_NE(store.lookup_any(kHealthy), nullptr);
}

// ------------------------------------------------- wall-clock opt-in

TEST(PacmSolver, SolveTimingIsOffByDefault) {
  ApeConfig config;
  config.cache_capacity_bytes = 10'000;
  PacmSolver solver(config);
  obs::Observer observer;
  solver.set_observer(&observer);

  std::vector<PacmObject> cached{
      object(1, 1, 5'000, 1, 100.0, 10.0),
      object(2, 2, 5'000, 1, 100.0, 10.0),
  };
  (void)solver.select_evictions(cached, 5'000, {{1, 1.0}, {2, 1.0}});

  // Stable instruments recorded; the volatile wall-clock one was not —
  // the default configuration never samples the host clock.
  EXPECT_GE(observer.metrics().counters().at("pacm.solves").value(), 1u);
  EXPECT_EQ(observer.metrics().histograms().count("pacm.solve_us"), 0u);
}

TEST(PacmSolver, SolveTimingRecordedWhenWallclockEnabled) {
  ApeConfig config;
  config.cache_capacity_bytes = 10'000;
  PacmSolver solver(config);
  obs::Observer observer;
  observer.enable_wallclock();
  solver.set_observer(&observer);

  std::vector<PacmObject> cached{
      object(1, 1, 5'000, 1, 100.0, 10.0),
      object(2, 2, 5'000, 1, 100.0, 10.0),
  };
  (void)solver.select_evictions(cached, 5'000, {{1, 1.0}, {2, 1.0}});

  const auto& histograms = observer.metrics().histograms();
  ASSERT_EQ(histograms.count("pacm.solve_us"), 1u);
  const auto& entry = histograms.at("pacm.solve_us");
  EXPECT_EQ(entry.volatility, obs::Volatility::Volatile);
  EXPECT_EQ(entry.histogram.count(), 1u);
  EXPECT_GE(entry.histogram.min(), 0.0);
}

}  // namespace
}  // namespace ape::core
