// The AP's block list (paper Sec. IV-B1): objects the AP has delegated
// before but decided never to cache — primarily anything larger than the
// size threshold (500 kB in the reference implementation).  Blocked URLs
// answer cache lookups with flag = Cache-Miss so clients go straight to
// the edge.
#pragma once

#include <cstdint>
#include <unordered_set>

#include "common/url_hash.hpp"

namespace ape::cache {

class BlockList {
 public:
  explicit BlockList(std::size_t size_threshold_bytes = 500 * 1000);

  [[nodiscard]] bool should_block(std::size_t object_size_bytes) const noexcept {
    return object_size_bytes > threshold_;
  }

  void block(UrlHash key) { blocked_.insert(key); }
  void unblock(UrlHash key) { blocked_.erase(key); }
  [[nodiscard]] bool contains(UrlHash key) const { return blocked_.contains(key); }
  [[nodiscard]] std::size_t size() const noexcept { return blocked_.size(); }
  [[nodiscard]] std::size_t threshold_bytes() const noexcept { return threshold_; }
  void clear() { blocked_.clear(); }

 private:
  std::size_t threshold_;
  std::unordered_set<UrlHash> blocked_;
};

}  // namespace ape::cache
