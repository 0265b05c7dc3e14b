#include "cache/lfu_policy.hpp"

#include <algorithm>

#include "common/ordered.hpp"

namespace ape::cache {

void LfuPolicy::on_insert(const CacheEntry& entry) {
  meta_[entry.key] = Meta{1, ++tick_};
}

void LfuPolicy::on_access(const CacheEntry& entry) {
  auto& m = meta_[entry.key];
  ++m.frequency;
  m.last_touch = ++tick_;
}

void LfuPolicy::on_erase(UrlHash key) {
  meta_.erase(key);
}

std::optional<std::vector<UrlHash>> LfuPolicy::select_victims(const CacheStore& store,
                                                              const CacheEntry& /*incoming*/,
                                                              std::size_t bytes_needed) {
  // Sort candidates by (frequency asc, last_touch asc); last_touch ticks are
  // unique, so the order is total.  The key-sorted snapshot keeps the walk
  // off the raw hash order.
  auto candidates = common::sorted_items(meta_);
  std::sort(candidates.begin(), candidates.end(), [](const auto& a, const auto& b) {
    if (a.second->frequency != b.second->frequency) {
      return a.second->frequency < b.second->frequency;
    }
    return a.second->last_touch < b.second->last_touch;
  });

  std::vector<UrlHash> victims;
  std::size_t freed = 0;
  for (const auto& [key, _] : candidates) {
    if (freed >= bytes_needed) break;
    const CacheEntry* entry = store.lookup_any(*key);
    if (entry == nullptr) continue;
    freed += entry->size_bytes;
    victims.push_back(*key);
  }
  if (freed < bytes_needed) return std::nullopt;
  return victims;
}

}  // namespace ape::cache
