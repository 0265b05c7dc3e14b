// 0/1 knapsack solver used by PACM's eviction decision.
//
// Exact dynamic program over the byte dimension at 1 kB granularity with
// item backtracking.  When items x capacity exceeds the DP budget the
// solver degrades to a utility-density greedy (documented in DESIGN.md);
// callers can tell which path ran via KnapsackResult::exact.  The greedy
// breaks density ties by input order.
//
// Row windows.  In 1 kB units, let C be the capacity, w_i item i's weight,
// and P_i / S_{i+1} the sums of the weights of the items that fit (w <= C)
// up to and including i / after i.  Row i of the DP fills only columns
//
//     [max(w_i, min(max(0, C - S_{i+1}), P_i)),  min(C, P_i)]
//
// Every cell above P_i equals the one at P_i (the whole prefix fits), so a
// row's new top is a copy of the previous row's top, and the backtrack
// reads the top for any column above it.  The backtrack from C never goes
// below C - S_{i+1}, and the cells it and dp[C] depend on never read below
// the previous row's window.  Each of those cells gets the same
// floating-point operations in the same order as in the full n x (C + 1)
// table, so the selection, total_value and total_weight are bit-identical
// to it (tests/knapsack_oracle.hpp).  A row spans at most
// min(C, sum(w) - C) + 1 columns: an AP at capacity clearing one incoming
// object's overflow fills about n x overflow cells, not n x C, and keeps
// one taken byte per cell.  The DP budget still compares n x (C + 1), so
// the exact/greedy choice is the full table's.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace ape::core {

struct KnapsackItem {
  double value = 0.0;        // utility U_d (>= 0)
  std::size_t weight = 0;    // bytes
};

struct KnapsackResult {
  std::vector<bool> selected;   // parallel to the input span
  double total_value = 0.0;
  std::size_t total_weight = 0; // bytes actually packed
  bool exact = true;
};

// The solver's buffers, for a caller that solves again and again (PACM
// solves on every insert at capacity): a solve reuses them and allocates
// only when it needs more room than every solve before it.
struct KnapsackWorkspace {
  struct Row {
    std::size_t lo = 1, hi = 0;  // empty: the item never fits
    std::size_t offset = 0;      // first cell of the row in `taken`
  };
  std::vector<Row> rows;
  std::vector<double> dp;
  std::vector<std::uint8_t> taken;
  std::vector<double> density;     // greedy fallback
  std::vector<std::size_t> order;  // greedy fallback
  KnapsackResult result;
};

// Solves into `workspace.result` and returns it; the result stays valid
// until the next solve with the same workspace.
const KnapsackResult& solve_knapsack(std::span<const KnapsackItem> items,
                                     std::size_t capacity_bytes, std::size_t dp_budget,
                                     KnapsackWorkspace& workspace);

// One-shot form over a fresh workspace.
[[nodiscard]] KnapsackResult solve_knapsack(std::span<const KnapsackItem> items,
                                            std::size_t capacity_bytes,
                                            std::size_t dp_budget = 40'000'000);

}  // namespace ape::core
