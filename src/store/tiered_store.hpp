// TieredStore — glue between the RAM cache and the flash tier.
//
// The RAM tier stays the authoritative hot store (cache::CacheStore, with
// PACM or any other policy choosing victims); this class wires the two
// tiers together:
//
//   * RAM evictions *demote*: the removal listener catches Evicted
//     entries and appends them to flash — but only when reading them back
//     from flash would actually beat refetching from the edge, and only
//     while they are still valid.  Expired, replaced and explicitly
//     erased entries are dead data nobody should pay flash writes for.
//   * flash hits *promote*: fetch_flash() pays the device read, then
//     offers the object back to RAM.  If the policy takes it the flash
//     copy is invalidated (RAM is authoritative again); if the policy
//     rejects it the object is served straight from flash and the flash
//     copy stays — no thrash.
//   * fresh inserts invalidate: a new copy fetched from the edge
//     supersedes any flash-resident copy of the same key.
//
// Exactly one TieredStore may claim a CacheStore's removal listener; the
// constructor installs it.
#pragma once

#include <functional>
#include <optional>
#include <string>

#include "cache/object_store.hpp"
#include "obs/observer.hpp"
#include "sim/simulator.hpp"
#include "store/flash_tier.hpp"

namespace ape::store {

class TieredStore {
 public:
  // `ram` and `flash` must outlive this object (plus any in-flight
  // fetch_flash completions — same quiesce rule as the device queue).
  TieredStore(sim::Simulator& sim, cache::CacheStore& ram, FlashTier& flash);

  // RAM insert of a freshly fetched object; supersedes any flash copy.
  cache::CacheStore::InsertOutcome insert(cache::CacheEntry entry, sim::Time now);

  // True when a valid copy lives on flash (index probe, no device cost).
  [[nodiscard]] bool flash_contains(UrlHash key, sim::Time now) const {
    return flash_.peek(key, now) != nullptr;
  }

  // Reads an object off flash (paying device time), attempts promotion to
  // RAM, and hands the entry to `done` (nullopt: not on flash / expired).
  // The device read is recorded as an "ap.flash.read" span parented on the
  // ambient trace context captured at entry.
  void fetch_flash(UrlHash key, sim::Time now,
                   std::function<void(std::optional<cache::CacheEntry>)> done);

  // Nullable span sink for ap.flash.read spans.
  void set_observer(obs::Observer* observer) noexcept { observer_ = observer; }

  // PACM's tier-aware latency-saved input: what serving this entry from
  // flash would cost, in milliseconds (core/pacm_policy.hpp).
  [[nodiscard]] double flash_read_ms(const cache::CacheEntry& entry) const;

  // Drops expired flash objects; returns live bytes reclaimed (the RAM
  // sweep is driven separately by ApRuntime).
  std::size_t sweep_flash_expired(sim::Time now) { return flash_.sweep_expired(now); }

  [[nodiscard]] FlashTier& flash() noexcept { return flash_; }
  [[nodiscard]] const FlashTier& flash() const noexcept { return flash_; }

  [[nodiscard]] std::size_t demotions() const noexcept { return demotions_; }
  [[nodiscard]] std::size_t demotion_skips() const noexcept { return demotion_skips_; }
  [[nodiscard]] std::size_t promotions() const noexcept { return promotions_; }
  [[nodiscard]] std::size_t flash_hits() const noexcept { return flash_hits_; }
  [[nodiscard]] std::size_t flash_misses() const noexcept { return flash_misses_; }

 private:
  void on_ram_removal(const cache::CacheEntry& entry, RemovalCause cause);

  sim::Simulator& sim_;
  cache::CacheStore& ram_;
  FlashTier& flash_;
  obs::Observer* observer_ = nullptr;

  std::size_t demotions_ = 0;
  std::size_t demotion_skips_ = 0;
  std::size_t promotions_ = 0;
  std::size_t flash_hits_ = 0;
  std::size_t flash_misses_ = 0;
};

}  // namespace ape::store
