// First-in-first-out eviction — an extra ablation point beyond the paper's
// LRU baseline (used by bench_micro_cache and the policy property tests).
#pragma once

#include <deque>
#include <unordered_set>

#include "cache/object_store.hpp"

namespace ape::cache {

class FifoPolicy final : public EvictionPolicy {
 public:
  void on_insert(const CacheEntry& entry) override;
  void on_access(const CacheEntry& /*entry*/) override {}
  void on_erase(UrlHash key) override;
  [[nodiscard]] std::optional<std::vector<UrlHash>> select_victims(
      const CacheStore& store, const CacheEntry& incoming, std::size_t bytes_needed) override;
  [[nodiscard]] std::string name() const override { return "FIFO"; }

 private:
  std::deque<UrlHash> order_;  // front = oldest
  std::unordered_set<UrlHash> erased_;  // lazy removals
};

}  // namespace ape::cache
