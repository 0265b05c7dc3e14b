// Why an entry left a cache store.  It lives in common/ because both sides
// of the cache boundary key on it: the cache layer (CacheStatistics'
// per-cause counters, store removal listeners) and the obs layer's
// eviction-cause ledger (obs::CacheAnalytics), which sits below cache.
// The flash tier demotes on Evicted only: expired/replaced/erased copies
// are dead data nobody should pay flash writes for (store/tiered_store.hpp).
#pragma once

#include <cstddef>

namespace ape {

enum class RemovalCause {
  Evicted,   // capacity pressure, chosen by the eviction policy
  Expired,   // TTL ran out (lazy get-side erase or sweep_expired)
  Replaced,  // same-key insert superseded it
  Erased,    // explicit erase()
  Cleared,   // store-wide clear()
};
inline constexpr std::size_t kRemovalCauseCount = 5;

}  // namespace ape
