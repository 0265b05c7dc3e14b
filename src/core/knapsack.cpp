// ape-lint: hot-path
#include "core/knapsack.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>

namespace ape::core {

namespace {

constexpr std::size_t kGranularity = 1024;  // DP cell = 1 kB

// Weight in DP units, rounded up so the byte budget is never exceeded.
std::size_t units(std::size_t bytes) {
  return (bytes + kGranularity - 1) / kGranularity;
}

// Utility-density greedy.  Ties keep input order (the store's key order):
// the index breaks them, which is what a stable sort would do, without the
// stable sort's temporary buffer.
void solve_greedy(std::span<const KnapsackItem> items, std::size_t capacity_bytes,
                  KnapsackWorkspace& ws) {
  KnapsackResult& result = ws.result;
  result.exact = false;
  result.selected.assign(items.size(), false);

  ws.density.resize(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    ws.density[i] = items[i].weight == 0
                        ? items[i].value
                        : items[i].value / static_cast<double>(items[i].weight);
  }
  ws.order.resize(items.size());
  std::iota(ws.order.begin(), ws.order.end(), std::size_t{0});
  std::sort(ws.order.begin(), ws.order.end(), [&](std::size_t a, std::size_t b) {
    if (ws.density[a] != ws.density[b]) return ws.density[a] > ws.density[b];
    return a < b;
  });

  for (std::size_t idx : ws.order) {
    if (result.total_weight + items[idx].weight > capacity_bytes) continue;
    result.selected[idx] = true;
    result.total_weight += items[idx].weight;
    result.total_value += items[idx].value;
  }
}

}  // namespace

KnapsackResult solve_knapsack(std::span<const KnapsackItem> items, std::size_t capacity_bytes,
                              std::size_t dp_budget) {
  KnapsackWorkspace workspace;
  solve_knapsack(items, capacity_bytes, dp_budget, workspace);
  return std::move(workspace.result);
}

const KnapsackResult& solve_knapsack(std::span<const KnapsackItem> items,
                                     std::size_t capacity_bytes, std::size_t dp_budget,
                                     KnapsackWorkspace& ws) {
  using Row = KnapsackWorkspace::Row;
  const std::size_t n = items.size();
  // Item weights round up to DP units; capacity rounds up too so that
  // exact byte fits (item == capacity) stay feasible.  The optimistic
  // capacity rounding can admit a slight byte overflow, which the repair
  // pass below removes.
  const std::size_t cap_units = units(capacity_bytes);

  KnapsackResult& result = ws.result;
  result.selected.clear();
  result.total_value = 0.0;
  result.total_weight = 0;
  result.exact = true;
  if (n == 0) return result;
  if (n * (cap_units + 1) > dp_budget) {
    solve_greedy(items, capacity_bytes, ws);
    return result;
  }

  // Row windows (knapsack.hpp): row i fills only columns [lo, hi], where
  // hi = min(C, P_i) and lo = max(w_i, min(max(0, C - S_{i+1}), P_i)).
  // P_i / S_{i+1} are the prefix / suffix unit sums of the items that fit.
  std::size_t fit_units = 0;
  for (const KnapsackItem& item : items) {
    if (units(item.weight) <= cap_units) fit_units += units(item.weight);
  }
  std::vector<Row>& rows = ws.rows;
  rows.assign(n, Row{});
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
  // as fast as packed bits.  The row loop writes every cell of its window
  // and takes no data-dependent branch, which would mispredict.
  std::vector<double>& dp = ws.dp;
  dp.assign(std::min(cap_units, fit_units) + 1, 0.0);
  std::vector<std::uint8_t>& taken = ws.taken;
  taken.resize(cells);
  std::size_t top = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Row& row = rows[i];
    if (row.lo > row.hi) continue;
    std::fill(dp.begin() + static_cast<std::ptrdiff_t>(top + 1),
              dp.begin() + static_cast<std::ptrdiff_t>(row.hi + 1), dp[top]);
    top = row.hi;
    const std::size_t w = units(items[i].weight);
    const double value = items[i].value;
    const std::size_t lo = row.lo;
    const std::size_t width = row.hi - lo + 1;
    double* const cell = dp.data() + lo;
    const double* const from = dp.data() + (lo - w);
    std::uint8_t* const took = taken.data() + row.offset;
    for (std::size_t k = width; k-- > 0;) {
      const double candidate = from[k] + value;
      const bool better = candidate > cell[k];
      cell[k] = better ? candidate : cell[k];
      took[k] = better;
    }
  }

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
