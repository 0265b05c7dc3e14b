// Cache analytics plane (DESIGN.md §5l): the Mattson/SHARDS MrcProfiler,
// the CacheAnalytics ledger + attribution partition, store-listener
// reentrancy, and the end-to-end default-off / observation-only contracts
// through the testbed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "cache/lru_policy.hpp"
#include "cache/object_store.hpp"
#include "obs/cache_analytics.hpp"
#include "obs/export.hpp"
#include "obs/mrc.hpp"
#include "sim/rng.hpp"
#include "testbed/experiment.hpp"
#include "workload/app_generator.hpp"

namespace ape::obs {
namespace {

// ---------------------------------------------------------- MrcProfiler

// Reference byte-weighted Mattson model: recency list, inclusive distance =
// bytes of distinct keys touched since the previous access + own bytes.
// Quadratic, so only for small traces.
class BruteForceMattson {
 public:
  explicit BruteForceMattson(std::uint64_t bucket_bytes) : bucket_(bucket_bytes) {}

  void access(const std::string& key, std::uint64_t bytes) {
    ++accesses_;
    auto it = std::find_if(stack_.begin(), stack_.end(),
                           [&](const auto& e) { return e.first == key; });
    if (it == stack_.end()) {
      ++cold_;
      stack_.emplace_front(key, bytes);
      return;
    }
    it->second = bytes == 0 ? it->second : bytes;
    std::uint64_t distance = it->second;
    for (auto walk = stack_.begin(); walk != it; ++walk) distance += walk->second;
    hits_per_bucket_[distance / bucket_] += 1;
    const auto entry = *it;
    stack_.erase(it);
    stack_.push_front(entry);
  }

  // Hits at an LRU cache of `capacity`, bucket-quantized exactly like
  // MrcProfiler::miss_ratio_at (buckets strictly below capacity/bucket).
  [[nodiscard]] double miss_ratio_at(std::uint64_t capacity) const {
    std::uint64_t hits = 0;
    for (const auto& [bucket, count] : hits_per_bucket_) {
      if (bucket < capacity / bucket_) hits += count;
    }
    return 1.0 - static_cast<double>(hits) / static_cast<double>(accesses_);
  }

 private:
  std::uint64_t bucket_;
  std::deque<std::pair<std::string, std::uint64_t>> stack_;
  std::map<std::uint64_t, std::uint64_t> hits_per_bucket_;
  std::uint64_t accesses_ = 0;
  std::uint64_t cold_ = 0;
};

std::uint64_t synthetic_size(std::size_t rank) {
  return 512 + (static_cast<std::uint64_t>(rank) * 7919) % 4096;
}

TEST(MrcProfiler, OracleMatchesBruteForceByteLru) {
  MrcConfig config;
  config.bucket_bytes = 1024;
  MrcProfiler oracle(config);
  BruteForceMattson reference(config.bucket_bytes);

  sim::Rng rng(7);
  for (int i = 0; i < 4000; ++i) {
    const auto rank = static_cast<std::size_t>(rng.uniform_int(0, 120));
    const std::string key = "obj-" + std::to_string(rank);
    oracle.record_access(key, synthetic_size(rank));
    reference.access(key, synthetic_size(rank));
  }
  for (const std::uint64_t capacity : {8u * 1024u, 64u * 1024u, 256u * 1024u, 1024u * 1024u}) {
    EXPECT_NEAR(oracle.miss_ratio_at(capacity), reference.miss_ratio_at(capacity), 1e-12)
        << "capacity " << capacity;
  }
}

void expect_curve_well_formed(const MrcProfiler& p) {
  const auto points = p.curve();
  std::uint64_t prev_cap = 0;
  double prev_hit = 0.0;
  double prev_miss = 1.0 + 1e-12;
  for (const MrcPoint& point : points) {
    EXPECT_GT(point.capacity_bytes, prev_cap);
    EXPECT_GT(point.hit_weight, prev_hit);
    EXPECT_LE(point.miss_ratio, prev_miss + 1e-12);
    EXPECT_GE(point.miss_ratio, -1e-12);
    EXPECT_NEAR(point.miss_ratio, 1.0 - point.hit_weight / p.total_weight(), 1e-9);
    prev_cap = point.capacity_bytes;
    prev_hit = point.hit_weight;
    prev_miss = point.miss_ratio;
  }
  // Weight conservation: every sampled access is cold, overflowed, or on
  // the curve.
  const double reuse = points.empty() ? 0.0 : points.back().hit_weight;
  EXPECT_NEAR(p.cold_weight() + p.overflow_weight() + reuse, p.total_weight(),
              1e-9 * std::max(1.0, p.total_weight()));
}

TEST(MrcProfiler, CurvesAreMonotoneOnRandomizedTraces) {
  // Property-style sweep over seeds and skews: uniform and Zipf popularity,
  // oracle and two sampling rates.
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    for (const double exponent : {0.0, 0.8}) {
      MrcConfig oracle_cfg;
      MrcConfig sampled_cfg;
      sampled_cfg.sample_rate = 0.3;
      MrcConfig adaptive_cfg;
      adaptive_cfg.sample_rate = 0.5;
      adaptive_cfg.s_max = 64;
      MrcProfiler oracle(oracle_cfg);
      MrcProfiler sampled(sampled_cfg);
      MrcProfiler adaptive(adaptive_cfg);

      sim::Rng rng(seed);
      const sim::ZipfDistribution zipf(500, exponent > 0.0 ? exponent : 1e-9);
      for (int i = 0; i < 3000; ++i) {
        const std::size_t rank = exponent > 0.0
                                     ? zipf.sample(rng)
                                     : static_cast<std::size_t>(rng.uniform_int(0, 499));
        const std::string key = "k" + std::to_string(rank);
        oracle.record_access(key, synthetic_size(rank));
        sampled.record_access(key, synthetic_size(rank));
        adaptive.record_access(key, synthetic_size(rank));
      }
      expect_curve_well_formed(oracle);
      expect_curve_well_formed(sampled);
      expect_curve_well_formed(adaptive);
    }
  }
}

TEST(MrcProfiler, SamplerAtRateOneMatchesOracleExactly) {
  MrcConfig oracle_cfg;
  MrcConfig full_cfg;
  full_cfg.label = "full";
  full_cfg.sample_rate = 1.0;
  MrcProfiler oracle(oracle_cfg);
  MrcProfiler full(full_cfg);

  sim::Rng rng(11);
  for (int i = 0; i < 5000; ++i) {
    const auto rank = static_cast<std::size_t>(rng.uniform_int(0, 300));
    const std::string key = "obj-" + std::to_string(rank);
    oracle.record_access(key, synthetic_size(rank));
    full.record_access(key, synthetic_size(rank));
  }
  const auto a = oracle.curve();
  const auto b = full.curve();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].capacity_bytes, b[i].capacity_bytes);
    EXPECT_DOUBLE_EQ(a[i].hit_weight, b[i].hit_weight);
    EXPECT_DOUBLE_EQ(a[i].miss_ratio, b[i].miss_ratio);
  }
  EXPECT_EQ(oracle.sampled(), full.sampled());
}

TEST(MrcProfiler, FixedRateSamplerWithinBoundOnUniformTrace) {
  // 20k keys / 120k accesses, uniform: the deterministic FNV sample at 10%
  // tracks the oracle curve closely (the 1% operating point at paper scale
  // is gated by bench_mrc).
  MrcConfig oracle_cfg;
  MrcConfig sampled_cfg;
  sampled_cfg.sample_rate = 0.1;
  MrcProfiler oracle(oracle_cfg);
  MrcProfiler sampled(sampled_cfg);

  sim::Rng rng(13);
  for (int i = 0; i < 120000; ++i) {
    const auto rank = static_cast<std::size_t>(rng.uniform_int(0, 19999));
    const std::string key = "uni-" + std::to_string(rank);
    oracle.record_access(key, synthetic_size(rank));
    sampled.record_access(key, synthetic_size(rank));
  }
  EXPECT_LT(sampled.tracked(), oracle.tracked() / 5);
  std::uint64_t max_capacity = 0;
  for (const auto& p : oracle.curve()) max_capacity = std::max(max_capacity, p.capacity_bytes);
  double max_err = 0.0;
  for (std::uint64_t c = oracle.config().bucket_bytes; c <= max_capacity;
       c += oracle.config().bucket_bytes) {
    max_err = std::max(max_err, std::abs(oracle.miss_ratio_at(c) - sampled.miss_ratio_at(c)));
  }
  EXPECT_LE(max_err, 0.02);
}

TEST(MrcProfiler, AdaptiveSMaxCapsTrackedKeysAndLowersRate) {
  MrcConfig config;
  config.sample_rate = 1.0;
  config.s_max = 128;
  MrcProfiler adaptive(config);

  for (int i = 0; i < 10000; ++i) {
    adaptive.record_access("key-" + std::to_string(i % 5000), 2048);
  }
  EXPECT_LE(adaptive.tracked(), config.s_max);
  EXPECT_LT(adaptive.current_rate(), 1.0);
  expect_curve_well_formed(adaptive);
}

TEST(MrcProfiler, UpdateSizeMatchesExactlySizedStream) {
  // Stream A: sizes known at access time.  Stream B: misses enter with a
  // 0-byte hint and update_size corrects the footprint before the next
  // access (the ApRuntime insert-listener pattern).  Curves must agree.
  MrcProfiler exact;
  MrcProfiler corrected;

  sim::Rng rng(17);
  std::map<std::string, bool> seen;
  for (int i = 0; i < 3000; ++i) {
    const auto rank = static_cast<std::size_t>(rng.uniform_int(0, 150));
    const std::string key = "obj-" + std::to_string(rank);
    const std::uint64_t bytes = synthetic_size(rank);
    exact.record_access(key, bytes);
    if (seen[key]) {
      corrected.record_access(key, bytes);
    } else {
      corrected.record_access(key, 0);
      corrected.update_size(key, bytes);
      seen[key] = true;
    }
  }
  const auto a = exact.curve();
  const auto b = corrected.curve();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].capacity_bytes, b[i].capacity_bytes);
    EXPECT_DOUBLE_EQ(a[i].hit_weight, b[i].hit_weight);
  }
}

// ------------------------------------------------------- CacheAnalytics

TEST(CacheAnalytics, LedgerCountsPerCauseAndDeadOnArrival) {
  CacheAnalytics plane;
  const sim::Time t0{};
  const sim::Time t1{sim::seconds(10.0)};
  const sim::Time t2{sim::seconds(25.0)};

  // Two capacity evictions (one never re-accessed = DOA), one expiry, one
  // replacement.
  plane.on_removal("a", 1000, "100", RemovalCause::Evicted, 0, t0, t0, t1);
  plane.on_removal("b", 2000, "100", RemovalCause::Evicted, 3, t0, t1, t2);
  plane.on_removal("c", 3000, "101", RemovalCause::Expired, 1, t0, t1, t2);
  plane.on_removal("d", 4000, "101", RemovalCause::Replaced, 2, t1, t1, t2);

  EXPECT_EQ(plane.removals(RemovalCause::Evicted), 2u);
  EXPECT_EQ(plane.removals(RemovalCause::Expired), 1u);
  EXPECT_EQ(plane.removals(RemovalCause::Replaced), 1u);
  EXPECT_EQ(plane.removals(RemovalCause::Erased), 0u);
  EXPECT_EQ(plane.dead_on_arrival(), 1u);
  EXPECT_DOUBLE_EQ(plane.dead_on_arrival_ratio(), 0.5);
  EXPECT_EQ(plane.lifetime_ms().count(), 4u);
  EXPECT_EQ(plane.apps().at("100").removals[0], 2u);
  EXPECT_EQ(plane.apps().at("101").removals[1], 1u);
}

TEST(CacheAnalytics, ReconcileDetectsBrokenPartition) {
  CacheAnalytics plane;
  plane.on_lookup("k1", 100, "100", LookupOutcome::Hit);
  plane.on_lookup("k2", 100, "100", LookupOutcome::Miss);
  plane.on_lookup("k3", 100, "101", LookupOutcome::Delegation);

  EXPECT_TRUE(plane.reconcile(1, 1, 1).empty());
  // Any mismatch against the CacheStatistics totals must surface.
  EXPECT_FALSE(plane.reconcile(2, 1, 1).empty());
  EXPECT_FALSE(plane.reconcile(1, 0, 1).empty());
  EXPECT_FALSE(plane.reconcile(1, 1, 2).empty());
}

// --------------------------------------------- store listener reentrancy

TEST(CacheAnalytics, RemovalListenerMayInsertDuringEviction) {
  // The analytics plane itself never mutates the store, but it shares the
  // listener list with subsystems that do (the fleet directory client
  // republishes, the flash tier demotes).  erase_internal notifies BEFORE
  // entries_.erase, so a listener inserting a *different* key re-enters the
  // store mid-removal; std::map iterator stability makes that legal, and
  // the byte accounting must stay exact.
  cache::CacheStore store(10 * 1000, std::make_unique<cache::LruPolicy>());
  const sim::Time now{};

  int reentries = 0;
  store.add_removal_listener(
      [&store, &reentries, now](const cache::CacheEntry& entry, RemovalCause cause) {
        if (cause != RemovalCause::Evicted || reentries >= 1) return;
        ++reentries;
        cache::CacheEntry side;
        side.key = "side-" + entry.key;
        side.size_bytes = 500;  // fits in the bytes the eviction frees
        side.expires = sim::Time{sim::seconds(3600.0)};
        ASSERT_EQ(store.insert(side, now), cache::CacheStore::InsertOutcome::Inserted);
      });

  auto make = [](const std::string& key, std::size_t bytes) {
    cache::CacheEntry e;
    e.key = key;
    e.size_bytes = bytes;
    e.expires = sim::Time{sim::seconds(3600.0)};
    return e;
  };
  ASSERT_EQ(store.insert(make("a", 4000), now), cache::CacheStore::InsertOutcome::Inserted);
  ASSERT_EQ(store.insert(make("b", 4000), now), cache::CacheStore::InsertOutcome::Inserted);
  // 8000/10000 used; this forces an LRU eviction of "a", whose removal
  // callback inserts "side-a" while "a" is mid-erase.
  ASSERT_EQ(store.insert(make("c", 4000), now), cache::CacheStore::InsertOutcome::Inserted);

  EXPECT_EQ(reentries, 1);
  EXPECT_EQ(store.get("a", now), nullptr);
  EXPECT_NE(store.get("side-a", now), nullptr);
  EXPECT_NE(store.get("c", now), nullptr);
  // Byte accounting survived the reentrant insert.
  std::size_t bytes = 0;
  store.for_each([&bytes](const cache::CacheEntry& e) { bytes += e.size_bytes; });
  EXPECT_EQ(store.used_bytes(), bytes);
}

// ------------------------------------------------------ export contracts

TEST(CacheAnalytics, ExportEmitsMrcSectionWithRollup) {
  CacheAnalyticsConfig config;
  MrcConfig oracle;
  MrcConfig shards;
  shards.label = "shards";
  shards.sample_rate = 0.5;
  config.profilers = {oracle, shards};
  CacheAnalytics a(config);
  CacheAnalytics b(config);
  for (int i = 0; i < 200; ++i) {
    a.on_lookup("k" + std::to_string(i % 20), 1000, "100",
                i % 3 == 0 ? LookupOutcome::Hit : LookupOutcome::Miss);
    b.on_lookup("k" + std::to_string(i % 30), 1000, "101", LookupOutcome::Hit);
  }

  std::vector<AnalyticsExportEntry> entries;
  entries.push_back({"ap0", 5000, &a});
  entries.push_back({"ap1", 5000, &b});
  MetricsRegistry m;
  ExportOptions options;
  options.mrc = &entries;
  const std::string json = to_json(m, options);

  EXPECT_NE(json.find("\"mrc\":{\"aps\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"ap0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"ap1\""), std::string::npos);
  EXPECT_NE(json.find("\"shards\":{\"sample_rate\":0.5"), std::string::npos);
  EXPECT_NE(json.find("\"rollup\":{\"profilers\":{"), std::string::npos);
  EXPECT_NE(json.find("\"evict\":{\"capacity\":0"), std::string::npos);
  // Rollup totals are the per-AP sums.
  EXPECT_NE(json.find("\"totals\":{\"hits\":267,\"misses\":133,\"delegations\":0}"),
            std::string::npos);

  // Without the option the section must not exist at all.
  EXPECT_EQ(to_json(m).find("\"mrc\""), std::string::npos);
}

// ------------------------------------------------- testbed integration

std::vector<workload::AppSpec> small_apps(std::size_t count) {
  workload::GeneratorParams params;
  params.app_count = count;
  sim::Rng rng(99);
  return workload::generate_apps(params, rng);
}

testbed::WorkloadConfig short_config() {
  testbed::WorkloadConfig config;
  config.duration = sim::minutes(5);
  config.mean_freq_per_min = 4.0;
  return config;
}

TEST(CacheAnalyticsTestbed, AttributionPartitionMatchesCacheStatistics) {
  testbed::TestbedParams params;
  params.enable_analytics = true;
  testbed::Testbed bed(params);
  const std::vector<workload::AppSpec> apps = small_apps(3);
  const auto result = testbed::run_workload(bed, apps, short_config());
  ASSERT_GT(result.object_fetches, 0u);

  ASSERT_NE(bed.analytics(), nullptr);
  const cache::CacheStatistics& stats = bed.ap().lookup_stats();
  // CacheStatistics::misses() folds delegations in; the plane splits them.
  EXPECT_TRUE(bed.analytics()
                  ->reconcile(stats.hits(), stats.misses() - stats.delegations(),
                              stats.delegations())
                  .empty());
  EXPECT_GE(bed.analytics()->apps().size(), apps.size());
}

TEST(CacheAnalyticsTestbed, PlaneIsObservationOnly) {
  // Identical workload, plane off vs on: every simulated outcome must be
  // byte-for-byte the same — the plane only watches.
  const std::vector<workload::AppSpec> apps = small_apps(2);

  testbed::TestbedParams off_params;
  testbed::Testbed off_bed(off_params);
  const auto off = testbed::run_workload(off_bed, apps, short_config());

  testbed::TestbedParams on_params;
  on_params.enable_analytics = true;
  MrcConfig shards;
  shards.label = "shards";
  shards.sample_rate = 0.25;
  on_params.analytics.profilers = {MrcConfig{}, shards};
  testbed::Testbed on_bed(on_params);
  const auto on = testbed::run_workload(on_bed, apps, short_config());

  EXPECT_EQ(off.object_fetches, on.object_fetches);
  EXPECT_EQ(off.ap_hits, on.ap_hits);
  EXPECT_EQ(off.app_runs, on.app_runs);
  EXPECT_DOUBLE_EQ(off.hit_ratio(), on.hit_ratio());
  EXPECT_DOUBLE_EQ(off.total_ms.mean(), on.total_ms.mean());
  EXPECT_DOUBLE_EQ(off.app_latency_ms.mean(), on.app_latency_ms.mean());
}

TEST(CacheAnalyticsTestbed, DefaultRunExportsNoAnalyticsKeys) {
  const std::vector<workload::AppSpec> apps = small_apps(1);
  testbed::Testbed bed(testbed::TestbedParams{});
  const auto result = testbed::run_workload(bed, apps, short_config());

  EXPECT_EQ(bed.analytics(), nullptr);
  const std::string json = to_json(result.metrics);
  // The gate: a default run's snapshot carries no analytics keys, so the
  // four committed baselines cannot move when the plane changes.
  EXPECT_EQ(json.find("cache.evict."), std::string::npos);
  EXPECT_EQ(json.find("cache.mrc."), std::string::npos);
  EXPECT_EQ(json.find("\"mrc\""), std::string::npos);

  // An analytics run exports the gated families.
  testbed::TestbedParams on_params;
  on_params.enable_analytics = true;
  testbed::Testbed on_bed(on_params);
  const auto on = testbed::run_workload(on_bed, apps, short_config());
  const std::string on_json = to_json(on.metrics);
  EXPECT_NE(on_json.find("ap.cache.evict.capacity"), std::string::npos);
  EXPECT_NE(on_json.find("ap.cache.mrc.oracle.sampled"), std::string::npos);
}

}  // namespace
}  // namespace ape::obs
