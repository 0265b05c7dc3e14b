// Deterministic views over unordered containers.
//
// Hash-map iteration order depends on the hash seed, insertion history and
// bucket count — never on the keys alone — so any decision or export that
// walks an unordered container is nondeterministic.  ape-lint forbids such
// walks (check `unordered-iter`); this header is the sanctioned escape
// hatch: it snapshots the container and sorts by key, so every caller sees
// one canonical order.  The O(n log n) snapshot is the price of the
// byte-identical `ape.obs.v1` exports CI asserts.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

namespace ape::common {

// (key*, value*) pairs of a map, sorted by key.  Pointers stay valid while
// the map is not mutated; no keys or values are copied.
template <typename Map>
[[nodiscard]] std::vector<
    std::pair<const typename Map::key_type*, const typename Map::mapped_type*>>
sorted_items(const Map& map) {
  std::vector<std::pair<const typename Map::key_type*, const typename Map::mapped_type*>>
      items;
  items.reserve(map.size());
  for (const auto& [key, value] : map) {  // ape-lint: allow(unordered-iter) -- sorted below
    items.emplace_back(&key, &value);
  }
  std::sort(items.begin(), items.end(),
            [](const auto& a, const auto& b) { return *a.first < *b.first; });
  return items;
}

}  // namespace ape::common
