#include "cache/fifo_policy.hpp"

namespace ape::cache {

void FifoPolicy::on_insert(const CacheEntry& entry) {
  erased_.erase(entry.key);
  order_.push_back(entry.key);
}

void FifoPolicy::on_erase(UrlHash key) {
  erased_.insert(key);
}

std::optional<std::vector<UrlHash>> FifoPolicy::select_victims(const CacheStore& store,
                                                               const CacheEntry& /*incoming*/,
                                                               std::size_t bytes_needed) {
  // Compact lazily-removed keys off the front as we scan.
  while (!order_.empty() && erased_.contains(order_.front())) {
    erased_.erase(order_.front());
    order_.pop_front();
  }
  std::vector<UrlHash> victims;
  std::size_t freed = 0;
  for (const UrlHash key : order_) {
    if (freed >= bytes_needed) break;
    if (erased_.contains(key)) continue;
    const CacheEntry* entry = store.lookup_any(key);
    if (entry == nullptr) continue;
    freed += entry->size_bytes;
    victims.push_back(key);
  }
  if (freed < bytes_needed) return std::nullopt;
  return victims;
}

}  // namespace ape::cache
