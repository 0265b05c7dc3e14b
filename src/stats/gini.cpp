#include "stats/gini.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace ape::stats {

double gini(std::span<const double> values) {
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  return gini_of_sorted(sorted);
}

double gini_of_sorted(std::span<const double> sorted) {
  const auto n = sorted.size();
  if (n == 0) return 0.0;

  // O(n log n) form: with x sorted ascending,
  //   sum_i sum_j |x_i - x_j| = 2 * sum_i (2i - n + 1) * x_i   (0-based i)
  double total = 0.0;
  double weighted = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += sorted[i];
    weighted += (2.0 * static_cast<double>(i) - static_cast<double>(n) + 1.0) * sorted[i];
  }
  if (total <= 0.0) return 0.0;
  const double abs_diff_sum = 2.0 * weighted;
  return abs_diff_sum / (2.0 * static_cast<double>(n) * total);
}

}  // namespace ape::stats
