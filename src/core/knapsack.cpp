#include "core/knapsack.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <numeric>

namespace ape::core {

namespace {

constexpr std::size_t kGranularity = 1024;  // DP cell = 1 kB

// Weight in DP units, rounded up so the byte budget is never exceeded.
std::size_t units(std::size_t bytes) {
  return (bytes + kGranularity - 1) / kGranularity;
}

KnapsackResult solve_greedy(std::span<const KnapsackItem> items, std::size_t capacity_bytes) {
  KnapsackResult result;
  result.exact = false;
  result.selected.assign(items.size(), false);

  std::vector<std::size_t> order(items.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  // Stable: equal-density items keep input order (the store's key order).
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double da = items[a].weight == 0
                          ? items[a].value
                          : items[a].value / static_cast<double>(items[a].weight);
    const double db = items[b].weight == 0
                          ? items[b].value
                          : items[b].value / static_cast<double>(items[b].weight);
    return da > db;
  });

  for (std::size_t idx : order) {
    if (result.total_weight + items[idx].weight > capacity_bytes) continue;
    result.selected[idx] = true;
    result.total_weight += items[idx].weight;
    result.total_value += items[idx].value;
  }
  return result;
}

}  // namespace

KnapsackResult solve_knapsack(std::span<const KnapsackItem> items, std::size_t capacity_bytes,
                              std::size_t dp_budget) {
  const std::size_t n = items.size();
  // Item weights round up to DP units; capacity rounds up too so that
  // exact byte fits (item == capacity) stay feasible.  The optimistic
  // capacity rounding can admit a slight byte overflow, which the repair
  // pass below removes.
  const std::size_t cap_units = units(capacity_bytes);

  if (n == 0) return KnapsackResult{{}, 0.0, 0, true};
  if (n * (cap_units + 1) > dp_budget) return solve_greedy(items, capacity_bytes);

  // Row windows (knapsack.hpp): row i fills only columns [lo, hi], where
  // hi = min(C, P_i) and lo = max(w_i, min(max(0, C - S_{i+1}), P_i)).
  // P_i / S_{i+1} are the prefix / suffix unit sums of the items that fit.
  struct Row {
    std::size_t lo = 1, hi = 0;  // empty: the item never fits
    std::size_t offset = 0;      // first cell of the row in `taken`
  };
  std::size_t fit_units = 0;
  for (const KnapsackItem& item : items) {
    if (units(item.weight) <= cap_units) fit_units += units(item.weight);
  }
  std::vector<Row> rows(n);
  std::size_t prefix = 0;
  std::size_t cells = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t w = units(items[i].weight);
    if (w > cap_units) continue;  // can never fit
    prefix += w;
    // max(0, C - S_{i+1}): the backtrack from C never reaches below it.
    const std::size_t reach =
        cap_units + prefix > fit_units ? cap_units + prefix - fit_units : 0;
    rows[i] = Row{std::max(w, std::min(reach, prefix)), std::min(cap_units, prefix), cells};
    cells += rows[i].hi - rows[i].lo + 1;
  }

  // dp[c] = best value of the rows so far at weight c, exact on [lo, hi] of
  // the last row (every cell above P_i equals the one at P_i); `taken`
  // holds each row's window of improvement flags for the backtrack, one
  // byte per cell: independent byte stores keep the row loop about twice
  // as fast as packed bits.
  std::vector<double> dp(std::min(cap_units, fit_units) + 1, 0.0);
  std::vector<std::uint8_t> taken(cells, 0);
  std::size_t top = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Row& row = rows[i];
    if (row.lo > row.hi) continue;
    std::fill(dp.begin() + static_cast<std::ptrdiff_t>(top + 1),
              dp.begin() + static_cast<std::ptrdiff_t>(row.hi + 1), dp[top]);
    top = row.hi;
    const std::size_t w = units(items[i].weight);
    for (std::size_t c = row.hi + 1; c-- > row.lo;) {
      const double candidate = dp[c - w] + items[i].value;
      if (candidate > dp[c]) {
        dp[c] = candidate;
        taken[row.offset + (c - row.lo)] = 1;
      }
    }
  }

  KnapsackResult result;
  result.exact = true;
  result.selected.assign(n, false);
  result.total_value = dp[top];

  std::size_t c = cap_units;
  for (std::size_t i = n; i-- > 0;) {
    const Row& row = rows[i];
    const std::size_t col = std::min(c, row.hi);  // cells above hi repeat it
    if (row.lo <= col && taken[row.offset + (col - row.lo)]) {
      result.selected[i] = true;
      result.total_weight += items[i].weight;
      c = col - units(items[i].weight);
    }
  }

  // Byte-feasibility repair: the unit-rounded capacity can overshoot by at
  // most one granule; drop the lowest-density selections until it fits.
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
  assert(result.total_weight <= capacity_bytes);
  return result;
}

}  // namespace ape::core
