#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cache/block_list.hpp"
#include "cache/cache_stats.hpp"
#include "cache/fifo_policy.hpp"
#include "cache/lfu_policy.hpp"
#include "cache/lru_policy.hpp"
#include "cache/object_store.hpp"
#include "sim/rng.hpp"

namespace ape::cache {
namespace {

// Keys are hashes; these stand in for "a" < "b" < "big" < "c" < "d" < "k1"
// < "nope" and keep that order.
constexpr UrlHash kA = 0xa0, kB = 0xb0, kBig = 0xb1, kC = 0xc0, kD = 0xd0, kK1 = 0xe1,
                  kNope = 0xf0;

CacheEntry entry(UrlHash key, std::size_t size, double expires_s = 3600.0,
                 int priority = 1, std::uint32_t app = 0) {
  CacheEntry e;
  e.key = key;
  e.size_bytes = size;
  e.expires = sim::Time{sim::seconds(expires_s)};
  e.priority = priority;
  e.app_id = app;
  return e;
}

constexpr sim::Time kT0{};

// ------------------------------------------------------------ CacheStore

TEST(CacheStore, InsertAndGet) {
  CacheStore store(1000, std::make_unique<LruPolicy>());
  EXPECT_EQ(store.insert(entry(kA, 100), kT0), CacheStore::InsertOutcome::Inserted);
  const CacheEntry* got = store.get(kA, kT0);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->size_bytes, 100u);
  EXPECT_EQ(store.used_bytes(), 100u);
}

TEST(CacheStore, MissReturnsNull) {
  CacheStore store(1000, std::make_unique<LruPolicy>());
  EXPECT_EQ(store.get(kNope, kT0), nullptr);
}

TEST(CacheStore, TooLargeRejected) {
  CacheStore store(1000, std::make_unique<LruPolicy>());
  EXPECT_EQ(store.insert(entry(kBig, 1001), kT0), CacheStore::InsertOutcome::TooLarge);
  EXPECT_EQ(store.used_bytes(), 0u);
}

TEST(CacheStore, ReplaceSameKeyFreesOldBytes) {
  CacheStore store(1000, std::make_unique<LruPolicy>());
  store.insert(entry(kA, 400), kT0);
  store.insert(entry(kA, 100), kT0);
  EXPECT_EQ(store.used_bytes(), 100u);
  EXPECT_EQ(store.entry_count(), 1u);
}

TEST(CacheStore, ExpiredEntriesLazilyErasedOnGet) {
  CacheStore store(1000, std::make_unique<LruPolicy>());
  store.insert(entry(kA, 100, /*expires_s=*/1.0), kT0);
  EXPECT_NE(store.get(kA, kT0), nullptr);
  EXPECT_EQ(store.get(kA, sim::Time{sim::seconds(2.0)}), nullptr);
  EXPECT_EQ(store.used_bytes(), 0u);
}

TEST(CacheStore, PeekDoesNotTouchRecency) {
  CacheStore store(250, std::make_unique<LruPolicy>());
  store.insert(entry(kA, 100), kT0);
  store.insert(entry(kB, 100), kT0);
  // Peek "a" (no recency bump), then force an eviction: "a" must be victim.
  (void)store.peek(kA, kT0);
  store.insert(entry(kC, 100), kT0);
  EXPECT_EQ(store.get(kA, kT0), nullptr);
  EXPECT_NE(store.get(kB, kT0), nullptr);
}

TEST(CacheStore, SweepExpiredReclaims) {
  CacheStore store(1000, std::make_unique<LruPolicy>());
  store.insert(entry(kA, 100, 1.0), kT0);
  store.insert(entry(kB, 200, 100.0), kT0);
  EXPECT_EQ(store.sweep_expired(sim::Time{sim::seconds(2.0)}), 100u);
  EXPECT_EQ(store.entry_count(), 1u);
}

TEST(CacheStore, ClearEmptiesEverything) {
  CacheStore store(1000, std::make_unique<LruPolicy>());
  store.insert(entry(kA, 100), kT0);
  store.insert(entry(kB, 100), kT0);
  store.clear();
  EXPECT_EQ(store.entry_count(), 0u);
  EXPECT_EQ(store.used_bytes(), 0u);
}

TEST(CacheStore, RemovalListenerFires) {
  CacheStore store(250, std::make_unique<LruPolicy>());
  std::vector<UrlHash> removed;
  std::vector<RemovalCause> causes;
  store.add_removal_listener([&](const CacheEntry& e, RemovalCause cause) {
    removed.push_back(e.key);
    causes.push_back(cause);
  });
  store.insert(entry(kA, 100), kT0);
  store.insert(entry(kB, 100), kT0);
  store.insert(entry(kC, 100), kT0);  // evicts "a"
  EXPECT_EQ(removed, std::vector<UrlHash>{kA});
  EXPECT_EQ(causes.back(), RemovalCause::Evicted);
  store.erase(kB);
  EXPECT_EQ(removed.back(), kB);
  EXPECT_EQ(causes.back(), RemovalCause::Erased);
  store.insert(entry(kC, 120), kT0);  // same-key replacement
  EXPECT_EQ(removed.back(), kC);
  EXPECT_EQ(causes.back(), RemovalCause::Replaced);
}

TEST(CacheStore, AccessCountIncrements) {
  CacheStore store(1000, std::make_unique<LruPolicy>());
  store.insert(entry(kA, 10), kT0);
  ASSERT_NE(store.get(kA, kT0), nullptr);
  ASSERT_NE(store.get(kA, kT0), nullptr);
  EXPECT_EQ(store.lookup_any(kA)->access_count, 2u);
}

// The store walks keys in numeric order, which for fixed-width lowercase hex
// is the order of their rendered text: PACM's candidate order, the greedy's
// ties and every ordered export rely on that.
TEST(CacheStore, IterationFollowsRenderedHexOrder) {
  CacheStore store(1'000'000, std::make_unique<LruPolicy>());
  const std::vector<UrlHash> keys = {
      0xf000000000000000, 0x0fffffffffffffff, 0xa, 0x9, 0x100, 0xff, 0x0,
      0xffffffffffffffff, 0x8000000000000000, 0x7fffffffffffffff, 0xabcdef0123456789};
  for (const UrlHash key : keys) store.insert(entry(key, 10), kT0);

  std::vector<std::string> walked;
  store.for_each([&](const CacheEntry& e) { walked.push_back(hash_to_string(e.key)); });
  ASSERT_EQ(walked.size(), keys.size());
  EXPECT_TRUE(std::is_sorted(walked.begin(), walked.end()));
  std::vector<std::string> rendered;
  for (const UrlHash key : keys) rendered.push_back(hash_to_string(key));
  std::sort(rendered.begin(), rendered.end());
  EXPECT_EQ(walked, rendered);
}

// Property: under random workloads, used_bytes stays consistent and never
// exceeds capacity, for every policy.
enum class PolicyKind { Lru, Fifo, Lfu };

std::unique_ptr<EvictionPolicy> make_policy(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::Lru: return std::make_unique<LruPolicy>();
    case PolicyKind::Fifo: return std::make_unique<FifoPolicy>();
    case PolicyKind::Lfu: return std::make_unique<LfuPolicy>();
  }
  return nullptr;
}

class PolicyPropertyTest : public ::testing::TestWithParam<std::tuple<PolicyKind, int>> {};

TEST_P(PolicyPropertyTest, CapacityInvariantUnderRandomOps) {
  const auto [kind, seed] = GetParam();
  CacheStore store(10'000, make_policy(kind));
  sim::Rng rng(static_cast<std::uint64_t>(seed));

  for (int op = 0; op < 2000; ++op) {
    const sim::Time now{sim::seconds(static_cast<double>(op))};
    const auto roll = rng.uniform_int(0, 9);
    const auto key = static_cast<UrlHash>(rng.uniform_int(0, 40));
    if (roll < 5) {
      const auto size = static_cast<std::size_t>(rng.uniform_int(50, 3000));
      store.insert(entry(key, size, static_cast<double>(op) + rng.uniform_real(1.0, 500.0)),
                   now);
    } else if (roll < 8) {
      (void)store.get(key, now);
    } else if (roll < 9) {
      store.erase(key);
    } else {
      store.sweep_expired(now);
    }
    ASSERT_LE(store.used_bytes(), store.capacity_bytes());

    // used_bytes must equal the sum over entries.
    std::size_t total = 0;
    store.for_each([&](const CacheEntry& e) { total += e.size_bytes; });
    ASSERT_EQ(total, store.used_bytes());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, PolicyPropertyTest,
    ::testing::Combine(::testing::Values(PolicyKind::Lru, PolicyKind::Fifo, PolicyKind::Lfu),
                       ::testing::Values(1, 2, 3)));

// ------------------------------------------------------------- policies

TEST(LruPolicy, EvictsLeastRecentlyUsed) {
  CacheStore store(300, std::make_unique<LruPolicy>());
  store.insert(entry(kA, 100), kT0);
  store.insert(entry(kB, 100), kT0);
  store.insert(entry(kC, 100), kT0);
  ASSERT_NE(store.get(kA, kT0), nullptr);  // freshen "a"; "b" becomes LRU
  store.insert(entry(kD, 100), kT0);
  EXPECT_NE(store.get(kA, kT0), nullptr);
  EXPECT_EQ(store.get(kB, kT0), nullptr);
  EXPECT_NE(store.get(kC, kT0), nullptr);
  EXPECT_NE(store.get(kD, kT0), nullptr);
}

TEST(LruPolicy, EvictsMultipleToFit) {
  CacheStore store(300, std::make_unique<LruPolicy>());
  store.insert(entry(kA, 100), kT0);
  store.insert(entry(kB, 100), kT0);
  store.insert(entry(kC, 100), kT0);
  store.insert(entry(kBig, 250), kT0);  // needs "a" and "b" gone
  EXPECT_EQ(store.get(kA, kT0), nullptr);
  EXPECT_EQ(store.get(kB, kT0), nullptr);
  EXPECT_NE(store.get(kBig, kT0), nullptr);
  EXPECT_LE(store.used_bytes(), 300u);
}

TEST(FifoPolicy, EvictsOldestInsertion) {
  CacheStore store(300, std::make_unique<FifoPolicy>());
  store.insert(entry(kA, 100), kT0);
  store.insert(entry(kB, 100), kT0);
  store.insert(entry(kC, 100), kT0);
  ASSERT_NE(store.get(kA, kT0), nullptr);  // FIFO ignores access recency
  store.insert(entry(kD, 100), kT0);
  EXPECT_EQ(store.get(kA, kT0), nullptr);
  EXPECT_NE(store.get(kB, kT0), nullptr);
}

TEST(LfuPolicy, EvictsLeastFrequentlyUsed) {
  CacheStore store(300, std::make_unique<LfuPolicy>());
  store.insert(entry(kA, 100), kT0);
  store.insert(entry(kB, 100), kT0);
  store.insert(entry(kC, 100), kT0);
  ASSERT_NE(store.get(kA, kT0), nullptr);
  ASSERT_NE(store.get(kA, kT0), nullptr);
  ASSERT_NE(store.get(kC, kT0), nullptr);
  store.insert(entry(kD, 100), kT0);  // "b" has lowest frequency
  EXPECT_EQ(store.get(kB, kT0), nullptr);
  EXPECT_NE(store.get(kA, kT0), nullptr);
}

TEST(PolicyNames, AreDistinct) {
  EXPECT_EQ(LruPolicy{}.name(), "LRU");
  EXPECT_EQ(FifoPolicy{}.name(), "FIFO");
  EXPECT_EQ(LfuPolicy{}.name(), "LFU");
}

// ------------------------------------------------------------ BlockList

TEST(BlockList, ThresholdMatchesPaper) {
  BlockList bl;  // default 500 kB (Sec. IV-B1)
  EXPECT_EQ(bl.threshold_bytes(), 500'000u);
  EXPECT_FALSE(bl.should_block(500'000));
  EXPECT_TRUE(bl.should_block(500'001));
}

TEST(BlockList, BlockAndUnblock) {
  BlockList bl(100);
  bl.block(kK1);
  EXPECT_TRUE(bl.contains(kK1));
  EXPECT_EQ(bl.size(), 1u);
  bl.unblock(kK1);
  EXPECT_FALSE(bl.contains(kK1));
}

TEST(BlockList, ClearEmpties) {
  BlockList bl(100);
  bl.block(kA);
  bl.block(kB);
  bl.clear();
  EXPECT_EQ(bl.size(), 0u);
}

// ------------------------------------------------------- CacheStatistics

TEST(CacheStatistics, HitRatio) {
  CacheStatistics s;
  s.record_hit(1);
  s.record_hit(2);
  s.record_miss(1);
  s.record_delegation(2);
  EXPECT_EQ(s.lookups(), 4u);
  EXPECT_DOUBLE_EQ(s.hit_ratio(), 0.5);
}

TEST(CacheStatistics, HighPriorityRatioSeparate) {
  CacheStatistics s;
  s.record_hit(2);
  s.record_miss(2);
  s.record_hit(1);
  s.record_miss(1);
  s.record_miss(1);
  EXPECT_DOUBLE_EQ(s.high_priority_hit_ratio(), 0.5);
  EXPECT_DOUBLE_EQ(s.hit_ratio(), 0.4);
}

TEST(CacheStatistics, EmptyIsZero) {
  CacheStatistics s;
  EXPECT_DOUBLE_EQ(s.hit_ratio(), 0.0);
  EXPECT_DOUBLE_EQ(s.high_priority_hit_ratio(), 0.0);
}

TEST(CacheStatistics, ResetClears) {
  CacheStatistics s;
  s.record_hit(2);
  s.reset();
  EXPECT_EQ(s.lookups(), 0u);
}

TEST(CacheStatistics, DelegationsCountAsMisses) {
  CacheStatistics s;
  s.record_delegation(1);
  EXPECT_EQ(s.misses(), 1u);
  EXPECT_EQ(s.delegations(), 1u);
}

}  // namespace
}  // namespace ape::cache
