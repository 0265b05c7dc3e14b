#include "cache/lru_policy.hpp"

namespace ape::cache {

void LruPolicy::touch(UrlHash key) {
  if (auto it = index_.find(key); it != index_.end()) {
    // Move the key's node to the front: a hit allocates nothing.
    order_.splice(order_.begin(), order_, it->second);
    return;
  }
  order_.push_front(key);
  index_[key] = order_.begin();
}

void LruPolicy::on_insert(const CacheEntry& entry) {
  touch(entry.key);
}

void LruPolicy::on_access(const CacheEntry& entry) {
  touch(entry.key);
}

void LruPolicy::on_erase(UrlHash key) {
  if (auto it = index_.find(key); it != index_.end()) {
    order_.erase(it->second);
    index_.erase(it);
  }
}

std::optional<std::vector<UrlHash>> LruPolicy::select_victims(const CacheStore& store,
                                                              const CacheEntry& /*incoming*/,
                                                              std::size_t bytes_needed) {
  std::vector<UrlHash> victims;
  std::size_t freed = 0;
  // Walk from the least recently used end.
  for (auto it = order_.rbegin(); it != order_.rend() && freed < bytes_needed; ++it) {
    const CacheEntry* entry = store.lookup_any(*it);
    if (entry == nullptr) continue;  // store/index drift should not happen
    freed += entry->size_bytes;
    victims.push_back(*it);
  }
  if (freed < bytes_needed) return std::nullopt;  // cannot free enough
  return victims;
}

}  // namespace ape::cache
