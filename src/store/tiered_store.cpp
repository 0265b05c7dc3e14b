#include "store/tiered_store.hpp"

#include <utility>

namespace ape::store {

TieredStore::TieredStore(sim::Simulator& sim, cache::CacheStore& ram, FlashTier& flash)
    : sim_(sim), ram_(ram), flash_(flash) {
  // add_, not set_: the owning ApRuntime has already registered its own
  // accounting listener by the time the tiered store is built, and set_
  // would silently drop it.
  ram_.add_removal_listener([this](const cache::CacheEntry& entry, RemovalCause cause) {
    on_ram_removal(entry, cause);
  });
}

cache::CacheStore::InsertOutcome TieredStore::insert(cache::CacheEntry entry, sim::Time now) {
  const UrlHash key = entry.key;
  const auto outcome = ram_.insert(std::move(entry), now);
  if (outcome == cache::CacheStore::InsertOutcome::Inserted) {
    // The fresh copy supersedes any flash-resident one.
    flash_.invalidate(key);
  }
  return outcome;
}

void TieredStore::fetch_flash(UrlHash key, sim::Time now,
                              std::function<void(std::optional<cache::CacheEntry>)> done) {
  // Capture the ambient context synchronously — by the time the device read
  // completes the caller's push/pop scope is long gone.
  obs::SpanLog* log = obs::tracing(observer_);
  obs::TraceContext read_span;
  if (log != nullptr) {
    read_span =
        log->open(log->current_context(), "ap.flash.read", "store", hash_to_string(key), now);
  }
  flash_.fetch(key, now, [this, log, read_span,
                          done = std::move(done)](std::optional<ObjectMeta> meta) mutable {
    if (log != nullptr) log->close(read_span, sim_.now());
    if (!meta.has_value()) {
      ++flash_misses_;
      done(std::nullopt);
      return;
    }
    ++flash_hits_;
    cache::CacheEntry entry = meta->to_entry();
    // Promotion attempt: offer the object back to RAM at completion time.
    // The RAM policy may refuse (the object is not worth its evictions);
    // then the flash copy stays put and we serve from flash — no thrash.
    cache::CacheStore::InsertOutcome outcome;
    {
      obs::ScopedTraceContext ambient(log, read_span);  // -> pacm.solve
      outcome = ram_.insert(entry, sim_.now());
    }
    if (outcome == cache::CacheStore::InsertOutcome::Inserted) {
      ++promotions_;
      flash_.invalidate(entry.key);  // RAM copy is authoritative again
    }
    done(std::move(entry));
  });
}

double TieredStore::flash_read_ms(const cache::CacheEntry& entry) const {
  return sim::to_millis(flash_.device().read_cost(entry.size_bytes));
}

void TieredStore::on_ram_removal(const cache::CacheEntry& entry, RemovalCause cause) {
  if (cause != RemovalCause::Evicted) return;
  const sim::Time now = sim_.now();
  if (entry.expired_at(now)) return;  // stale victims are just dropped
  // Demotion only pays off when a flash read beats refetching upstream.
  if (flash_.device().read_cost(entry.size_bytes) >= entry.fetch_latency) {
    ++demotion_skips_;
    return;
  }
  if (flash_.put(entry, now) == FlashTier::PutOutcome::Stored) {
    ++demotions_;
  } else {
    ++demotion_skips_;
  }
}

}  // namespace ape::store
