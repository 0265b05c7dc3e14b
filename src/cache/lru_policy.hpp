// Least-recently-used eviction — the cache management of Wi-Cache and the
// APE-CACHE-LRU ablation baseline (paper Sec. V-A).
#pragma once

#include <list>
#include <unordered_map>

#include "cache/object_store.hpp"

namespace ape::cache {

class LruPolicy final : public EvictionPolicy {
 public:
  void on_insert(const CacheEntry& entry) override;
  void on_access(const CacheEntry& entry) override;
  void on_erase(UrlHash key) override;
  [[nodiscard]] std::optional<std::vector<UrlHash>> select_victims(
      const CacheStore& store, const CacheEntry& incoming, std::size_t bytes_needed) override;
  [[nodiscard]] std::string name() const override { return "LRU"; }

 private:
  void touch(UrlHash key);

  std::list<UrlHash> order_;  // front = most recent
  std::unordered_map<UrlHash, std::list<UrlHash>::iterator> index_;
};

}  // namespace ape::cache
