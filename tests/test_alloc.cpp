// Allocation properties of the cache's per-request paths.
//
// This binary replaces the global operator new with one that counts, and
// each test reads the count around one call.  The tests assert properties
// that hold under any standard library (no allocation at all, or the same
// number at two problem sizes), never absolute counts.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "cache/block_list.hpp"
#include "cache/fifo_policy.hpp"
#include "cache/gdsf_policy.hpp"
#include "cache/lfu_policy.hpp"
#include "cache/lru_policy.hpp"
#include "cache/object_store.hpp"
#include "core/frequency_tracker.hpp"
#include "core/pacm_policy.hpp"
#include "sim/simulator.hpp"

namespace {
std::size_t g_allocations = 0;  // the tests are single-threaded
}  // namespace

void* operator new(std::size_t bytes) {
  ++g_allocations;
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace ape {
namespace {

// Allocations made while running `fn`.
template <typename Fn>
std::size_t allocations_in(Fn&& fn) {
  const std::size_t before = g_allocations;
  fn();
  return g_allocations - before;
}

cache::CacheEntry entry(UrlHash key, std::size_t size, core::AppId app = 0) {
  cache::CacheEntry e;
  e.key = key;
  e.size_bytes = size;
  e.app_id = app;
  e.expires = sim::Time{sim::seconds(3600.0)};
  e.fetch_latency = sim::milliseconds(20.0 + static_cast<double>(key % 31));
  return e;
}

// The hook is live: an allocation that escapes is counted.
std::vector<std::unique_ptr<int>> g_kept;

TEST(Allocations, CountingHookSeesAllocations) {
  EXPECT_GT(allocations_in([] { g_kept.push_back(std::make_unique<int>(1)); }), 0u);
  g_kept.clear();
}

// The lookups every DNS-Cache query and AP HTTP request makes, under each
// policy's access hook.
TEST(Allocations, StoreLookupsAllocateNothing) {
  sim::Simulator clock;
  core::ApeConfig config;
  const core::FrequencyTracker freq(core::kAlpha, core::kFrequencyWindow);
  std::vector<std::unique_ptr<cache::EvictionPolicy>> policies;
  policies.push_back(std::make_unique<cache::LruPolicy>());
  policies.push_back(std::make_unique<cache::FifoPolicy>());
  policies.push_back(std::make_unique<cache::LfuPolicy>());
  policies.push_back(std::make_unique<cache::GdsfPolicy>());
  policies.push_back(std::make_unique<core::PacmPolicy>(config, clock, freq));
  for (auto& policy : policies) {
    const std::string name = policy->name();
    cache::CacheStore store(1'000'000, std::move(policy));
    for (UrlHash key = 1; key <= 20; ++key) store.insert(entry(key, 1'000), sim::Time{});
    const sim::Time now{sim::seconds(1.0)};
    std::size_t found = 0;
    const std::size_t allocs = allocations_in([&] {
      for (UrlHash key = 0; key <= 21; ++key) {  // 0 and 21 miss
        found += store.get(key, now) != nullptr;
        found += store.peek(key, now) != nullptr;
        found += store.lookup_any(key) != nullptr;
      }
    });
    EXPECT_EQ(found, 60u) << name;
    EXPECT_EQ(allocs, 0u) << name;
  }
}

TEST(Allocations, BlockListContainsAllocatesNothing) {
  cache::BlockList blocked(100);
  for (UrlHash key = 1; key <= 50; ++key) blocked.block(key * 7);
  std::size_t found = 0;
  const std::size_t allocs = allocations_in([&] {
    for (UrlHash key = 0; key <= 400; ++key) found += blocked.contains(key);
  });
  EXPECT_EQ(found, 50u);
  EXPECT_EQ(allocs, 0u);
}

// One PACM solve at capacity, after warm-up solves have grown the solver's
// buffers: the count must not depend on how many objects are cached, nor
// on how many apps they belong to (one per five objects).
std::size_t pacm_solve_allocations(std::size_t candidates, bool force_greedy) {
  sim::Simulator clock;
  core::ApeConfig config;
  config.cache_capacity_bytes = candidates * 4'000;
  config.pacm_force_greedy = force_greedy;
  const std::size_t apps = candidates / 5;
  core::FrequencyTracker freq(core::kAlpha, core::kFrequencyWindow);
  for (core::AppId app = 0; app < apps; ++app) freq.record_request(app, clock.now());
  cache::CacheStore store(config.cache_capacity_bytes,
                          std::make_unique<core::PacmPolicy>(config, clock, freq));
  for (UrlHash key = 1; key <= candidates; ++key) {
    const auto app = static_cast<core::AppId>(key % apps);
    EXPECT_EQ(store.insert(entry(key, 4'000, app), clock.now()),
              cache::CacheStore::InsertOutcome::Inserted);
  }
  EXPECT_EQ(store.used_bytes(), store.capacity_bytes());

  const cache::CacheEntry incoming = entry(candidates + 1, 6'000, 3);
  cache::EvictionPolicy& pacm = store.policy();
  for (int warm = 0; warm < 3; ++warm) {
    EXPECT_TRUE(pacm.select_victims(store, incoming, 6'000).has_value());
  }
  std::optional<std::vector<UrlHash>> victims;
  const std::size_t allocs =
      allocations_in([&] { victims = pacm.select_victims(store, incoming, 6'000); });
  EXPECT_TRUE(victims.has_value() && !victims->empty());
  return allocs;
}

TEST(Allocations, PacmSolveAllocationsDoNotGrowWithCandidates) {
  EXPECT_EQ(pacm_solve_allocations(50, false), pacm_solve_allocations(500, false));
}

TEST(Allocations, PacmGreedySolveAllocationsDoNotGrowWithCandidates) {
  EXPECT_EQ(pacm_solve_allocations(50, true), pacm_solve_allocations(500, true));
}

}  // namespace
}  // namespace ape
