// The tiered persistent store (src/store): device cost model, LSM flash
// tier (segments, compaction, deterministic eviction), journaled crash
// recovery, RAM<->flash demotion/promotion glue, and the testbed's
// warm/cold restart model.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/lru_policy.hpp"
#include "cache/object_store.hpp"
#include "common/url_hash.hpp"
#include "obs/export.hpp"
#include "sim/simulator.hpp"
#include "store/flash_device.hpp"
#include "store/flash_tier.hpp"
#include "store/journal.hpp"
#include "store/tiered_store.hpp"
#include "testbed/testbed.hpp"
#include "workload/real_apps.hpp"

namespace ape::store {
namespace {

// Keys are hashes; these keep the order of the names they stand for
// ("a" < "b" < "big" < ... < "x"), and kK0 + i / kObj0 + i that of "k<i>"
// and "obj<i>" for i < 10.
constexpr UrlHash kA = 0x10, kB = 0x20, kBig = 0x21, kC = 0x30, kCheap = 0x31, kD = 0x40,
                  kE = 0x50, kF = 0x60, kFresh = 0x61, kHot = 0x70, kK0 = 0x80, kLong = 0x90,
                  kObj0 = 0xa0, kPost = 0xb0, kPusher = 0xb1, kShort = 0xc0, kStale = 0xc1,
                  kTrigger = 0xd0, kX = 0xe0;

cache::CacheEntry entry(UrlHash key, std::size_t size, sim::Time expires,
                        sim::Duration fetch_latency = sim::milliseconds(30)) {
  cache::CacheEntry e;
  e.key = key;
  e.size_bytes = size;
  e.app_id = 7;
  e.priority = 2;
  e.expires = expires;
  e.fetch_latency = fetch_latency;
  return e;
}

sim::Time at_sec(double s) { return sim::Time{} + sim::seconds(s); }

// ------------------------------------------------------------- device

TEST(FlashDevice, CostModelIsLatencyPlusBandwidth) {
  sim::Simulator sim;
  FlashDeviceParams params;
  params.read_latency = sim::microseconds(100);
  params.write_latency = sim::microseconds(500);
  params.read_bandwidth = 1e6;   // 1 byte / us
  params.write_bandwidth = 5e5;  // 2 us / byte
  FlashDevice device(sim, params);

  EXPECT_EQ(device.read_cost(1000), sim::microseconds(100 + 1000));
  EXPECT_EQ(device.write_cost(1000), sim::microseconds(500 + 2000));
  EXPECT_LT(device.read_cost(1000), device.write_cost(1000));
}

TEST(FlashDevice, ReadCompletesAfterQueueingPlusDeviceTime) {
  sim::Simulator sim;
  FlashDeviceParams params;
  params.read_latency = sim::microseconds(150);
  params.read_bandwidth = 1e6;
  FlashDevice device(sim, params);

  // Two back-to-back reads on one channel serialize.
  std::vector<sim::Time> done;
  device.read(1000, [&] { done.push_back(sim.now()); });
  device.read(1000, [&] { done.push_back(sim.now()); });
  sim.run();

  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], sim::Time{} + sim::microseconds(1150));
  EXPECT_EQ(done[1], sim::Time{} + sim::microseconds(2300));
  EXPECT_EQ(device.reads(), 2u);
  EXPECT_EQ(device.bytes_read(), 2000u);
}

// --------------------------------------------------------------- tier

struct TierFixture : ::testing::Test {
  sim::Simulator sim;
  FlashMedia media;
  FlashTierParams params;
  std::unique_ptr<FlashDevice> device;
  std::unique_ptr<FlashTier> tier;

  void build(std::size_t capacity, std::size_t segment) {
    params.capacity_bytes = capacity;
    params.segment_bytes = segment;
    device = std::make_unique<FlashDevice>(sim, FlashDeviceParams{});
    tier = std::make_unique<FlashTier>(*device, media, params);
  }
};

TEST_F(TierFixture, PutPeekFetchRoundTrip) {
  build(100'000, 10'000);
  ASSERT_EQ(tier->put(entry(kA, 4'000, at_sec(60)), at_sec(0)), FlashTier::PutOutcome::Stored);

  const auto* meta = tier->peek(kA, at_sec(1));
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->size_bytes, 4'000u);

  // A fetch pays real device time before handing back metadata.
  std::optional<ObjectMeta> got;
  sim::Time completed{};
  tier->fetch(kA, at_sec(1), [&](std::optional<ObjectMeta> m) {
    got = std::move(m);
    completed = sim.now();
  });
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->key, kA);
  EXPECT_GE(completed, sim::Time{} + device->read_cost(4'000));

  // Expired copies are invisible and a fetch reports a miss synchronously.
  EXPECT_EQ(tier->peek(kA, at_sec(120)), nullptr);
  bool missed = false;
  tier->fetch(kA, at_sec(120), [&](std::optional<ObjectMeta> m) { missed = !m.has_value(); });
  EXPECT_TRUE(missed);
}

TEST_F(TierFixture, OversizedAndExpiredPutsAreRejected) {
  build(10'000, 5'000);
  EXPECT_EQ(tier->put(entry(kBig, 20'000, at_sec(60)), at_sec(0)),
            FlashTier::PutOutcome::Rejected);
  EXPECT_EQ(tier->put(entry(kStale, 1'000, at_sec(1)), at_sec(5)),
            FlashTier::PutOutcome::Rejected);
  EXPECT_EQ(tier->rejections(), 2u);
  EXPECT_EQ(tier->entry_count(), 0u);
}

TEST_F(TierFixture, SegmentsSealAndAccountingStaysConsistent) {
  build(1'000'000, 10'000);
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(tier->put(entry(kK0 + i, 4'000, at_sec(600)), at_sec(0)),
              FlashTier::PutOutcome::Stored);
  }
  // 8 x 4k at 10k/segment: segments sealed along the way.
  EXPECT_GE(tier->segment_count(), 4u);
  EXPECT_EQ(tier->live_bytes(), 32'000u);

  std::size_t total = 0, dead = 0;
  for (const auto& [id, seg] : tier->segments()) {
    total += seg.total_bytes;
    dead += seg.dead_bytes;
  }
  EXPECT_EQ(total, tier->physical_bytes());
  EXPECT_EQ(total - dead, tier->live_bytes());
}

TEST_F(TierFixture, InvalidationMarksDeadAndCompactionReclaims) {
  build(1'000'000, 10'000);
  for (int i = 0; i < 6; ++i) {
    tier->put(entry(kK0 + i, 5'000, at_sec(600)), at_sec(0));
  }
  const auto physical_before = tier->physical_bytes();

  // Kill both objects of the first sealed segment: its dead ratio crosses
  // compact_dead_ratio (0.5), so the *next mutation* compacts it eagerly.
  EXPECT_TRUE(tier->invalidate(kK0 + 0));
  EXPECT_TRUE(tier->invalidate(kK0 + 1));
  EXPECT_EQ(tier->physical_bytes(), physical_before);  // dead bytes still occupy flash

  tier->put(entry(kTrigger, 1'000, at_sec(600)), at_sec(0));
  EXPECT_GE(tier->compactions(), 1u);
  EXPECT_LT(tier->physical_bytes(), physical_before);
  for (const auto& [id, seg] : tier->segments()) {
    EXPECT_LT(seg.dead_ratio(), 0.5) << "segment " << id << " should have been compacted";
  }
  // Survivors are intact.
  for (const UrlHash key : {kK0 + 2, kK0 + 3, kK0 + 4, kK0 + 5, kTrigger}) {
    EXPECT_NE(tier->peek(key, at_sec(1)), nullptr) << key;
  }
}

TEST_F(TierFixture, EvictionIsSoonestToExpireWithSeqTieBreak) {
  build(20'000, 5'000);
  // Fill to capacity: d expires first, a/c tie (a appended earlier).
  tier->put(entry(kA, 5'000, at_sec(300)), at_sec(0));
  tier->put(entry(kB, 5'000, at_sec(400)), at_sec(0));
  tier->put(entry(kC, 5'000, at_sec(300)), at_sec(0));
  tier->put(entry(kD, 5'000, at_sec(100)), at_sec(0));
  ASSERT_EQ(tier->entry_count(), 4u);

  // Needs one slot: d (soonest expiry) must go first.
  ASSERT_EQ(tier->put(entry(kE, 5'000, at_sec(500)), at_sec(0)), FlashTier::PutOutcome::Stored);
  EXPECT_EQ(tier->peek(kD, at_sec(1)), nullptr);
  EXPECT_NE(tier->peek(kA, at_sec(1)), nullptr);

  // Next slot: a vs c tie on expiry, lower append seq (a) loses.
  ASSERT_EQ(tier->put(entry(kF, 5'000, at_sec(500)), at_sec(0)), FlashTier::PutOutcome::Stored);
  EXPECT_EQ(tier->peek(kA, at_sec(1)), nullptr);
  EXPECT_NE(tier->peek(kC, at_sec(1)), nullptr);
  EXPECT_EQ(tier->evictions(), 2u);
}

TEST_F(TierFixture, SweepExpiredReclaimsLiveBytes) {
  build(100'000, 10'000);
  tier->put(entry(kShort, 4'000, at_sec(10)), at_sec(0));
  tier->put(entry(kLong, 6'000, at_sec(600)), at_sec(0));

  EXPECT_EQ(tier->sweep_expired(at_sec(5)), 0u);
  EXPECT_EQ(tier->sweep_expired(at_sec(60)), 4'000u);
  EXPECT_EQ(tier->entry_count(), 1u);
  EXPECT_EQ(tier->expired_reclaimed_bytes(), 4'000u);
  EXPECT_NE(tier->peek(kLong, at_sec(60)), nullptr);
}

// ----------------------------------------------------------- recovery

struct RecoveryFixture : TierFixture {
  // A workout that exercises every record kind: appends across several
  // segments, overwrites, invalidations, eviction, compaction.
  void workout() {
    for (int i = 0; i < 10; ++i) {
      tier->put(entry(kObj0 + i, 4'000, at_sec(300 + i)), at_sec(0));
    }
    tier->invalidate(kObj0 + 2);
    tier->invalidate(kObj0 + 3);
    tier->put(entry(kObj0 + 4, 4'500, at_sec(700)), at_sec(1));     // overwrite
    tier->put(entry(kFresh, 9'000, at_sec(800)), at_sec(1));    // forces room-making
  }
};

TEST_F(RecoveryFixture, ReplayReproducesExactPreCrashState) {
  build(50'000, 10'000);
  workout();

  const auto index_before = tier->index();
  const auto segments_before = tier->segments();
  const auto live_before = tier->live_bytes();
  const auto physical_before = tier->physical_bytes();
  ASSERT_FALSE(index_before.empty());

  // "Crash": the tier object (RAM state) dies; media survives.  A fresh
  // tier over the same media replays the journal at mount.
  FlashDevice device2(sim, FlashDeviceParams{});
  FlashTier recovered(device2, media, params);
  ASSERT_TRUE(media.formatted());
  recovered.recover();

  EXPECT_EQ(recovered.recoveries(), 1u);
  EXPECT_EQ(recovered.index(), index_before);
  EXPECT_EQ(recovered.segments(), segments_before);
  EXPECT_EQ(recovered.live_bytes(), live_before);
  EXPECT_EQ(recovered.physical_bytes(), physical_before);
}

TEST_F(RecoveryFixture, TwoReplaysOfOneJournalAreIdentical) {
  build(50'000, 10'000);
  workout();

  FlashDevice da(sim, FlashDeviceParams{}), db(sim, FlashDeviceParams{});
  FlashTier ra(da, media, params), rb(db, media, params);
  ra.recover();
  rb.recover();

  EXPECT_EQ(ra.index(), rb.index());
  EXPECT_EQ(ra.segments(), rb.segments());
  EXPECT_EQ(ra.live_bytes(), rb.live_bytes());
  EXPECT_EQ(ra.physical_bytes(), rb.physical_bytes());
}

TEST_F(RecoveryFixture, RecoveredTierKeepsAbsorbingWrites) {
  build(50'000, 10'000);
  workout();
  const auto count_before = tier->entry_count();

  FlashDevice device2(sim, FlashDeviceParams{});
  FlashTier recovered(device2, media, params);
  recovered.recover();
  ASSERT_EQ(recovered.entry_count(), count_before);

  // The unsealed segment was re-adopted as active: new puts append to it
  // (or seal it) without clashing with replayed segment ids.
  ASSERT_EQ(recovered.put(entry(kPost, 3'000, at_sec(900)), at_sec(2)),
            FlashTier::PutOutcome::Stored);
  EXPECT_NE(recovered.peek(kPost, at_sec(3)), nullptr);
  EXPECT_EQ(recovered.entry_count(), count_before + 1);
}

TEST_F(TierFixture, JournalCheckpointBoundsReplayCost) {
  build(50'000, 10'000);
  // Hammer one key: without checkpointing the journal would grow one
  // Append + one Invalidate per overwrite, unbounded.
  for (int i = 0; i < 400; ++i) {
    tier->put(entry(kHot, 2'000, at_sec(600 + i)), at_sec(0));
  }
  EXPECT_GE(tier->journal().rewrites(), 1u);
  const auto budget = params.journal_rewrite_factor *
                          (tier->entry_count() + tier->segment_count()) +
                      params.journal_rewrite_slack;
  EXPECT_LE(tier->journal().record_count(), budget);

  // The compacted journal still replays to the same state.
  FlashDevice device2(sim, FlashDeviceParams{});
  FlashTier recovered(device2, media, params);
  recovered.recover();
  EXPECT_EQ(recovered.index(), tier->index());
  EXPECT_EQ(recovered.segments(), tier->segments());
}

TEST_F(TierFixture, ResetWipesStateAndJournal) {
  build(50'000, 10'000);
  tier->put(entry(kA, 4'000, at_sec(60)), at_sec(0));
  ASSERT_TRUE(media.formatted());
  tier->reset();
  EXPECT_EQ(tier->entry_count(), 0u);
  EXPECT_EQ(tier->physical_bytes(), 0u);
  EXPECT_FALSE(media.formatted());
}

// -------------------------------------------------------- tiered glue

struct TieredFixture : ::testing::Test {
  sim::Simulator sim;
  FlashMedia media;
  std::unique_ptr<FlashDevice> device;
  std::unique_ptr<FlashTier> flash;
  std::unique_ptr<cache::CacheStore> ram;
  std::unique_ptr<TieredStore> store;

  void build(std::size_t ram_capacity) {
    device = std::make_unique<FlashDevice>(sim, FlashDeviceParams{});
    flash = std::make_unique<FlashTier>(*device, media, FlashTierParams{});
    ram = std::make_unique<cache::CacheStore>(ram_capacity,
                                              std::make_unique<cache::LruPolicy>());
    store = std::make_unique<TieredStore>(sim, *ram, *flash);
  }
};

TEST_F(TieredFixture, RamEvictionDemotesToFlash) {
  build(10'000);
  EXPECT_EQ(store->insert(entry(kA, 6'000, at_sec(300)), at_sec(0)),
            cache::CacheStore::InsertOutcome::Inserted);
  // b forces a out of RAM (LRU): a lands on flash, still servable.
  EXPECT_EQ(store->insert(entry(kB, 6'000, at_sec(300)), at_sec(1)),
            cache::CacheStore::InsertOutcome::Inserted);

  EXPECT_EQ(store->demotions(), 1u);
  EXPECT_EQ(ram->peek(kA, at_sec(1)), nullptr);
  EXPECT_TRUE(store->flash_contains(kA, at_sec(1)));
}

TEST_F(TieredFixture, ExpiredAndCheapEntriesAreNotDemoted) {
  build(10'000);
  // Fetch latency below the flash read cost: demoting is pointless.
  auto cheap = entry(kCheap, 6'000, at_sec(300), sim::microseconds(50));
  store->insert(cheap, at_sec(0));
  store->insert(entry(kPusher, 6'000, at_sec(300)), at_sec(1));

  EXPECT_EQ(store->demotions(), 0u);
  EXPECT_EQ(store->demotion_skips(), 1u);
  EXPECT_FALSE(store->flash_contains(kCheap, at_sec(1)));

  // Explicit erase is dead data, not a demotion ("pusher" would be worth
  // demoting — its 30 ms fetch dwarfs flash — but it didn't get evicted).
  ram->erase(kPusher);
  EXPECT_EQ(store->demotions(), 0u);
  EXPECT_FALSE(store->flash_contains(kPusher, at_sec(2)));
}

TEST_F(TieredFixture, FlashHitPromotesAndInvalidatesFlashCopy) {
  build(10'000);
  store->insert(entry(kA, 6'000, at_sec(300)), at_sec(0));
  store->insert(entry(kB, 6'000, at_sec(300)), at_sec(1));  // demotes a
  ASSERT_TRUE(store->flash_contains(kA, at_sec(1)));

  std::optional<cache::CacheEntry> got;
  store->fetch_flash(kA, at_sec(2), [&](std::optional<cache::CacheEntry> e) { got = e; });
  sim.run();

  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->key, kA);
  EXPECT_EQ(store->flash_hits(), 1u);
  EXPECT_EQ(store->promotions(), 1u);
  // RAM took it back, so the flash copy is superseded...
  EXPECT_NE(ram->peek(kA, at_sec(2)), nullptr);
  EXPECT_FALSE(store->flash_contains(kA, at_sec(2)));
  // ...and the promotion in turn demoted b (LRU victim) to flash.
  EXPECT_TRUE(store->flash_contains(kB, at_sec(2)));
}

TEST_F(TieredFixture, FreshInsertSupersedesFlashCopy) {
  build(10'000);
  store->insert(entry(kA, 6'000, at_sec(300)), at_sec(0));
  store->insert(entry(kB, 6'000, at_sec(300)), at_sec(1));  // demotes a
  ASSERT_TRUE(store->flash_contains(kA, at_sec(1)));

  // A re-fetch from the edge re-inserts a: the stale flash copy must die.
  store->insert(entry(kA, 6'000, at_sec(600)), at_sec(2));
  EXPECT_FALSE(store->flash_contains(kA, at_sec(2)));
  EXPECT_NE(ram->peek(kA, at_sec(2)), nullptr);
}

TEST_F(TieredFixture, FlashReadMsTracksDeviceCost) {
  build(10'000);
  const auto e = entry(kX, 100'000, at_sec(300));
  EXPECT_DOUBLE_EQ(store->flash_read_ms(e), sim::to_millis(device->read_cost(100'000)));
}

// ------------------------------------------------- testbed restarts

testbed::TestbedParams tiered_params() {
  testbed::TestbedParams params;
  params.system = testbed::System::ApeCache;
  params.policy_override = core::ApRuntime::Policy::Lru;  // deterministic demotions
  // Tight RAM: the movie-trailer JSON objects (2k/4k/8k/12k) don't all
  // fit, so the later fetches evict — and thereby demote — earlier ones.
  params.ape.cache_capacity_bytes = 20'000;
  params.ape.flash_capacity_bytes = 5'000'000;
  return params;
}

// Fetches every object of `app` once through `client`, driving the sim.
void fetch_all(testbed::Testbed& bed, testbed::Testbed::Client& client,
               const workload::AppSpec& app) {
  for (const auto& request : app.requests) {
    client.runtime->fetch(request.url, [](core::ClientRuntime::FetchResult) {});
    bed.simulator().run();
  }
}

struct RestartFixture : ::testing::Test {
  std::unique_ptr<testbed::Testbed> bed;
  testbed::Testbed::Client* client = nullptr;
  workload::AppSpec app = workload::make_movie_trailer();

  void build(testbed::TestbedParams params) {
    bed = std::make_unique<testbed::Testbed>(params);
    bed->host_app(app);
    client = &bed->add_client("phone");
    for (auto& spec : app.cacheables()) client->runtime->register_cacheable(spec);
    fetch_all(*bed, *client, app);
  }
};

TEST_F(RestartFixture, WarmRestartReplaysJournalColdRestartDoesNot) {
  build(tiered_params());
  ASSERT_TRUE(bed->ap().tiered());
  const auto* flash = bed->ap().flash_tier();
  ASSERT_GT(flash->entry_count(), 0u) << "workload must spill into flash";
  const auto flash_index = flash->index();
  const auto ram_entries = bed->ap().data_cache().entry_count();
  ASSERT_GT(ram_entries, 0u);

  bed->restart_ap(/*preserve_flash=*/true);
  // RAM is gone, flash came back exactly.
  EXPECT_EQ(bed->ap().data_cache().entry_count(), 0u);
  ASSERT_TRUE(bed->ap().tiered());
  EXPECT_EQ(bed->ap().flash_tier()->recoveries(), 1u);
  EXPECT_EQ(bed->ap().flash_tier()->index(), flash_index);

  bed->restart_ap(/*preserve_flash=*/false);
  EXPECT_EQ(bed->ap().flash_tier()->recoveries(), 0u);
  EXPECT_EQ(bed->ap().flash_tier()->entry_count(), 0u);
  EXPECT_FALSE(bed->flash_media()->formatted());
}

TEST_F(RestartFixture, WarmRestartStillServesDemotedObjects) {
  build(tiered_params());
  ASSERT_FALSE(bed->ap().flash_tier()->index().empty());
  bed->restart_ap(/*preserve_flash=*/true);

  // Recovered flash copies are cache hits for the APE path: re-running
  // the app must serve some objects from flash instead of the edge.
  auto& phone = bed->add_client("phone2");
  for (auto& spec : app.cacheables()) phone.runtime->register_cacheable(spec);
  fetch_all(*bed, phone, app);
  EXPECT_GT(bed->ap().tiered_store()->flash_hits(), 0u);
  EXPECT_GT(bed->ap().tiered_store()->promotions(), 0u);
}

TEST_F(RestartFixture, PostRecoveryExportIsByteIdenticalAcrossReplays) {
  // Two independent testbeds running the identical deterministic script,
  // each crashing and warm-restarting at the same instant, must export
  // byte-identical ape.obs.v1 snapshots.
  auto run_once = [this]() {
    build(tiered_params());
    bed->restart_ap(/*preserve_flash=*/true);
    auto& phone = bed->add_client("phone2");
    for (auto& spec : app.cacheables()) phone.runtime->register_cacheable(spec);
    fetch_all(*bed, phone, app);
    bed->collect_metrics();
    return obs::to_json(bed->observer().metrics());
  };
  const std::string first = run_once();
  const std::string second = run_once();
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("ap.flash.journal_replays"), std::string::npos);
}

TEST_F(RestartFixture, PeriodicSweepReclaimsExpiredRamBytes) {
  auto params = tiered_params();
  params.ape.sweep_interval = sim::seconds(30.0);
  // With a self-rescheduling sweep the event queue never drains, so this
  // test drives the sim with run_until throughout (never run()).
  bed = std::make_unique<testbed::Testbed>(params);
  bed->host_app(app);
  client = &bed->add_client("phone");
  for (auto& spec : app.cacheables()) client->runtime->register_cacheable(spec);
  for (const auto& request : app.requests) {
    client->runtime->fetch(request.url, [](core::ClientRuntime::FetchResult) {});
    bed->simulator().run_until(bed->simulator().now() + sim::seconds(5.0));
  }

  ASSERT_GT(bed->ap().data_cache().entry_count(), 0u);
  // Run far past every TTL; the sweep event must fire repeatedly and
  // reclaim the expired entries without any client touching them.
  bed->simulator().run_until(sim::Time{} + sim::seconds(7200.0));
  EXPECT_GT(bed->ap().lookup_stats().sweeps(), 0u);
  EXPECT_GT(bed->ap().lookup_stats().sweep_reclaimed_bytes(), 0u);
  EXPECT_EQ(bed->ap().data_cache().entry_count(), 0u);

  bed->collect_metrics();
  const std::string json = obs::to_json(bed->observer().metrics());
  EXPECT_NE(json.find("ap.cache.sweeps"), std::string::npos);
}

TEST(StoreMetricsGate, RamOnlyRunsRegisterNoStoreMetrics) {
  // The flash tier and sweep are strictly opt-in: a default config run
  // must not even *register* the new metrics (byte-identity of existing
  // baselines depends on it).
  testbed::Testbed bed{testbed::TestbedParams{}};
  EXPECT_FALSE(bed.ap().tiered());
  EXPECT_EQ(bed.flash_media(), nullptr);
  bed.collect_metrics();
  const std::string json = obs::to_json(bed.observer().metrics());
  EXPECT_EQ(json.find("ap.flash."), std::string::npos);
  EXPECT_EQ(json.find("ap.store."), std::string::npos);
  EXPECT_EQ(json.find("ap.cache.sweeps"), std::string::npos);
}

}  // namespace
}  // namespace ape::store
