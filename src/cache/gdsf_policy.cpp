#include "cache/gdsf_policy.hpp"

#include <algorithm>

#include "common/ordered.hpp"

namespace ape::cache {

double GdsfPolicy::value_of(const CacheEntry& entry, std::uint64_t frequency,
                            double inflation) noexcept {
  const double cost = std::max(sim::to_millis(entry.fetch_latency), 1.0);
  const double size = std::max(static_cast<double>(entry.size_bytes), 1.0);
  return inflation + static_cast<double>(frequency) * cost / size;
}

void GdsfPolicy::on_insert(const CacheEntry& entry) {
  Meta meta;
  meta.frequency = 1;
  meta.h = value_of(entry, meta.frequency, inflation_);
  meta_[entry.key] = meta;
}

void GdsfPolicy::on_access(const CacheEntry& entry) {
  auto it = meta_.find(entry.key);
  if (it == meta_.end()) return;
  ++it->second.frequency;
  it->second.h = value_of(entry, it->second.frequency, inflation_);
}

void GdsfPolicy::on_erase(UrlHash key) {
  meta_.erase(key);
}

std::optional<std::vector<UrlHash>> GdsfPolicy::select_victims(
    const CacheStore& store, const CacheEntry& /*incoming*/, std::size_t bytes_needed) {
  // Sort candidates by H ascending; evict the cheapest until freed.  The
  // stable sort over the key-sorted snapshot breaks equal-H ties by key, so
  // victim choice never depends on hash order.
  auto candidates = common::sorted_items(meta_);
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const auto& a, const auto& b) { return a.second->h < b.second->h; });

  std::vector<UrlHash> victims;
  std::size_t freed = 0;
  double last_h = inflation_;
  for (const auto& [key, meta] : candidates) {
    if (freed >= bytes_needed) break;
    const CacheEntry* entry = store.lookup_any(*key);
    if (entry == nullptr) continue;
    freed += entry->size_bytes;
    last_h = meta->h;
    victims.push_back(*key);
  }
  if (freed < bytes_needed) return std::nullopt;
  // Classic GDSF: inflate L to the value of the last evicted entry so
  // newly inserted objects compete fairly with long-lived ones.
  inflation_ = std::max(inflation_, last_h);
  return victims;
}

}  // namespace ape::cache
