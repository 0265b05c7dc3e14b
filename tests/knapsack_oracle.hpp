// Reference 0/1 knapsack for the property tests: the full-table DP that
// `solve_knapsack` windows.  Every row fills all C + 1 one-kB columns and
// keeps its own taken-bit row; the result is the same cell arithmetic, in
// the same order, with the same backtrack and byte-feasibility repair, so
// `solve_knapsack` must match it bit for bit on every exact instance.
#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "core/knapsack.hpp"

namespace ape::core::oracle {

inline std::size_t units(std::size_t bytes) { return (bytes + 1023) / 1024; }

inline KnapsackResult full_table_knapsack(std::span<const KnapsackItem> items,
                                          std::size_t capacity_bytes) {
  const std::size_t n = items.size();
  const std::size_t cap_units = units(capacity_bytes);
  if (n == 0) return KnapsackResult{{}, 0.0, 0, true};

  const std::size_t width = cap_units + 1;
  std::vector<double> dp(width, 0.0);
  std::vector<std::vector<bool>> taken(n, std::vector<bool>(width, false));

  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t w = units(items[i].weight);
    if (w > cap_units) continue;
    for (std::size_t c = cap_units + 1; c-- > w;) {
      const double candidate = dp[c - w] + items[i].value;
      if (candidate > dp[c]) {
        dp[c] = candidate;
        taken[i][c] = true;
      }
    }
  }

  KnapsackResult result;
  result.exact = true;
  result.selected.assign(n, false);
  result.total_value = dp[cap_units];

  std::size_t c = cap_units;
  for (std::size_t i = n; i-- > 0;) {
    if (taken[i][c]) {
      result.selected[i] = true;
      result.total_weight += items[i].weight;
      c -= units(items[i].weight);
    }
  }

  while (result.total_weight > capacity_bytes) {
    std::size_t worst = n;
    double worst_density = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < n; ++i) {
      if (!result.selected[i] || items[i].weight == 0) continue;
      const double density = items[i].value / static_cast<double>(items[i].weight);
      if (density < worst_density) {
        worst_density = density;
        worst = i;
      }
    }
    if (worst == n) break;
    result.selected[worst] = false;
    result.total_weight -= items[worst].weight;
    result.total_value -= items[worst].value;
  }
  return result;
}

}  // namespace ape::core::oracle
