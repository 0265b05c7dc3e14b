#include <gtest/gtest.h>

#include <cmath>

#include "stats/gini.hpp"
#include "stats/histogram.hpp"
#include "stats/table.hpp"

namespace ape::stats {
namespace {

// ----------------------------------------------------------- Histogram

TEST(Histogram, EmptyIsSafe) {
  Histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.95), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

TEST(Histogram, MeanAndSum) {
  Histogram h;
  h.record(1.0);
  h.record(2.0);
  h.record(3.0);
  EXPECT_DOUBLE_EQ(h.mean(), 2.0);
  EXPECT_DOUBLE_EQ(h.sum(), 6.0);
  EXPECT_EQ(h.count(), 3u);
}

TEST(Histogram, MinMax) {
  Histogram h;
  for (double v : {5.0, -2.0, 7.5, 0.0}) h.record(v);
  EXPECT_DOUBLE_EQ(h.min(), -2.0);
  EXPECT_DOUBLE_EQ(h.max(), 7.5);
}

TEST(Histogram, PercentileExactOrderStatistics) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.record(static_cast<double>(i));
  EXPECT_NEAR(h.percentile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(h.percentile(1.0), 100.0, 1e-9);
  EXPECT_NEAR(h.percentile(0.5), 50.5, 1e-9);
  // p95 via linear interpolation on 100 points: index 94.05 -> 95.05.
  EXPECT_NEAR(h.percentile(0.95), 95.05, 1e-9);
}

TEST(Histogram, PercentileClampsOutOfRangeQuantile) {
  Histogram h;
  h.record(3.0);
  h.record(9.0);
  EXPECT_DOUBLE_EQ(h.percentile(-0.5), 3.0);
  EXPECT_DOUBLE_EQ(h.percentile(2.0), 9.0);
}

TEST(Histogram, PercentileAfterLaterRecordsStaysCorrect) {
  Histogram h;
  h.record(10.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 10.0);
  h.record(20.0);  // invalidates the sorted cache
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 20.0);
}

TEST(Histogram, MergeCombinesSamples) {
  Histogram a, b;
  a.record(1.0);
  b.record(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
}

TEST(Histogram, MergeAdoptsUnitWhenUnlabeled) {
  Histogram a;  // default-constructed: no unit yet
  Histogram b("ms");
  b.record(3.0);
  a.merge(b);
  EXPECT_EQ(a.unit(), "ms");
}

TEST(Histogram, MergeKeepsReceiverUnitOnMismatch) {
  Histogram a("ms");
  Histogram b("bytes");
  a.record(1.0);
  b.record(3.0);
  a.merge(b);
  // Never a silent relabel of existing samples: the receiver's unit wins.
  EXPECT_EQ(a.unit(), "ms");
  EXPECT_EQ(a.count(), 2u);
}

TEST(Histogram, MergeEmptyIntoEmptyKeepsStateSane) {
  Histogram a, b;
  a.merge(b);
  EXPECT_TRUE(a.empty());
  EXPECT_DOUBLE_EQ(a.percentile(0.99), 0.0);
}

TEST(Histogram, ClearResets) {
  Histogram h;
  h.record(5.0);
  h.clear();
  EXPECT_TRUE(h.empty());
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST(Histogram, StddevOfConstantIsZero) {
  Histogram h;
  for (int i = 0; i < 5; ++i) h.record(4.2);
  EXPECT_NEAR(h.stddev(), 0.0, 1e-12);
}

TEST(Histogram, StddevMatchesHandComputation) {
  Histogram h;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) h.record(v);
  // Sample stddev of this classic set is ~2.138.
  EXPECT_NEAR(h.stddev(), 2.138, 0.001);
}

TEST(Histogram, BucketsPartitionSamples) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.record(static_cast<double>(i));
  const auto buckets = h.buckets(10);
  std::size_t total = 0;
  for (std::size_t b : buckets) total += b;
  EXPECT_EQ(total, 100u);
  EXPECT_EQ(buckets.size(), 10u);
}

TEST(Histogram, BucketsDegenerateAllEqual) {
  Histogram h;
  for (int i = 0; i < 7; ++i) h.record(1.0);
  const auto buckets = h.buckets(4);
  EXPECT_EQ(buckets[0], 7u);
}

// ---------------------------------------------------------------- Gini

TEST(Gini, EmptyIsZero) {
  EXPECT_DOUBLE_EQ(gini({}), 0.0);
}

TEST(Gini, AllEqualIsZero) {
  const std::vector<double> v{3.0, 3.0, 3.0, 3.0};
  EXPECT_NEAR(gini(v), 0.0, 1e-12);
}

TEST(Gini, AllZerosIsZero) {
  const std::vector<double> v{0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(gini(v), 0.0);
}

TEST(Gini, MaximallyUnequal) {
  // One member holds everything: G = (n-1)/n.
  const std::vector<double> v{0.0, 0.0, 0.0, 12.0};
  EXPECT_NEAR(gini(v), 0.75, 1e-9);
}

TEST(Gini, KnownValue) {
  // {1, 3}: mean |x_i - x_j| sum = 2*|1-3| = 4; denom = 2*2*4 = 16 -> 0.25.
  const std::vector<double> v{1.0, 3.0};
  EXPECT_NEAR(gini(v), 0.25, 1e-9);
}

TEST(Gini, ScaleInvariant) {
  const std::vector<double> a{1.0, 2.0, 5.0, 9.0};
  std::vector<double> b;
  for (double x : a) b.push_back(x * 1000.0);
  EXPECT_NEAR(gini(a), gini(b), 1e-12);
}

TEST(Gini, OrderInvariant) {
  const std::vector<double> a{5.0, 1.0, 9.0, 2.0};
  const std::vector<double> b{9.0, 5.0, 2.0, 1.0};
  EXPECT_NEAR(gini(a), gini(b), 1e-12);
}

// Property sweep: Gini stays within [0, 1) for arbitrary non-negative data.
class GiniRangeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GiniRangeTest, StaysInRange) {
  std::vector<double> v;
  std::uint64_t x = GetParam() * 2654435761u + 1;
  for (std::size_t i = 0; i < GetParam() + 1; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    v.push_back(static_cast<double>(x % 10000) / 10.0);
  }
  const double g = gini(v);
  EXPECT_GE(g, 0.0);
  EXPECT_LT(g, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, GiniRangeTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// --------------------------------------------------------------- Table

TEST(Table, RendersHeaderAndRows) {
  Table t("Demo");
  t.header({"a", "bb"}).row({"1", "2"}).row({"333", "4"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("Demo"), std::string::npos);
  EXPECT_NE(out.find("| a "), std::string::npos);
  EXPECT_NE(out.find("333"), std::string::npos);
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

TEST(Table, PctFormatsFraction) {
  EXPECT_EQ(Table::pct(0.7654, 1), "76.5%");
}

TEST(Table, HandlesRaggedRows) {
  Table t;
  t.header({"x", "y", "z"}).row({"only-one"});
  EXPECT_NE(t.to_string().find("only-one"), std::string::npos);
}

}  // namespace
}  // namespace ape::stats
