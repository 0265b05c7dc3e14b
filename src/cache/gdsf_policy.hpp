// Greedy-Dual-Size-Frequency (Cherkasova '98) — the classic web-cache
// eviction algorithm that, like PACM, is size- and cost-aware but has no
// notion of developer priority or fairness.  Included as the strongest
// non-PACM ablation point for the cache-management benches.
//
//   H(d) = L + frequency(d) * cost(d) / size(d)
//
// where L is the "inflation" value of the last eviction; the entry with
// the lowest H is evicted first.  cost(d) = observed fetch latency (ms).
#pragma once

#include <map>
#include <unordered_map>

#include "cache/object_store.hpp"

namespace ape::cache {

class GdsfPolicy final : public EvictionPolicy {
 public:
  void on_insert(const CacheEntry& entry) override;
  void on_access(const CacheEntry& entry) override;
  void on_erase(UrlHash key) override;
  [[nodiscard]] std::optional<std::vector<UrlHash>> select_victims(
      const CacheStore& store, const CacheEntry& incoming, std::size_t bytes_needed) override;
  [[nodiscard]] std::string name() const override { return "GDSF"; }

  [[nodiscard]] double inflation() const noexcept { return inflation_; }

 private:
  struct Meta {
    double h = 0.0;
    std::uint64_t frequency = 0;
  };

  [[nodiscard]] static double value_of(const CacheEntry& entry, std::uint64_t frequency,
                                       double inflation) noexcept;

  std::unordered_map<UrlHash, Meta> meta_;
  double inflation_ = 0.0;  // L
};

}  // namespace ape::cache
