// Least-frequently-used eviction (ties broken by recency) — second extra
// ablation point for the cache-policy comparison benches.
#pragma once

#include <unordered_map>

#include "cache/object_store.hpp"

namespace ape::cache {

class LfuPolicy final : public EvictionPolicy {
 public:
  void on_insert(const CacheEntry& entry) override;
  void on_access(const CacheEntry& entry) override;
  void on_erase(UrlHash key) override;
  [[nodiscard]] std::optional<std::vector<UrlHash>> select_victims(
      const CacheStore& store, const CacheEntry& incoming, std::size_t bytes_needed) override;
  [[nodiscard]] std::string name() const override { return "LFU"; }

 private:
  struct Meta {
    std::uint64_t frequency = 0;
    std::uint64_t last_touch = 0;  // logical tick for tie-break
  };
  std::unordered_map<UrlHash, Meta> meta_;
  std::uint64_t tick_ = 0;
};

}  // namespace ape::cache
