// Gini coefficient over per-app storage efficiency (paper Eq. 1):
//
//   F(A) = sum_x sum_y |C_x - C_y|  /  (2 * A * sum_x C_x)
//
// 0 = perfectly equal, ->1 = maximally unequal.  PACM constrains
// F(A) <= theta (0.4 by default).
#pragma once

#include <span>

namespace ape::stats {

// Returns 0.0 for empty input or when all values are zero (degenerate but
// "equal" allocations should never trip the fairness constraint).
[[nodiscard]] double gini(std::span<const double> values);

// The same over values already sorted ascending, without gini()'s sorted
// copy (PACM sorts its own reused buffer on every fairness check).
[[nodiscard]] double gini_of_sorted(std::span<const double> sorted);

}  // namespace ape::stats
