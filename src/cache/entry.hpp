// The unit of cached state on an AP (and in baselines).
#pragma once

#include <cstdint>
#include <string>

#include "common/removal_cause.hpp"
#include "common/url_hash.hpp"
#include "sim/time.hpp"

namespace ape::cache {

struct CacheEntry {
  UrlHash key = 0;                 // hash of the base URL
  std::size_t size_bytes = 0;
  std::uint32_t app_id = 0;
  int priority = 1;                // developer-declared, 1 = low / 2 = high
  sim::Time expires{};             // absolute expiry (insert time + TTL)
  sim::Duration fetch_latency{0};  // observed cost of fetching from upstream
  sim::Time inserted{};
  sim::Time last_access{};
  std::uint64_t access_count = 0;
  std::string etag;  // validator for conditional refresh (revalidation ext.)

  [[nodiscard]] bool expired_at(sim::Time now) const noexcept { return expires <= now; }
  [[nodiscard]] sim::Duration remaining_ttl(sim::Time now) const noexcept {
    return expires <= now ? sim::Duration{0} : expires - now;
  }
};

}  // namespace ape::cache
