#include <gtest/gtest.h>

#include "metrics/stats.hpp"

namespace cloudqc {
namespace {

TEST(Stats, MeanVarianceStddev) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(xs), 5.0);
}

TEST(Stats, MinMax) {
  const std::vector<double> xs{3.0, -1.0, 7.5};
  EXPECT_DOUBLE_EQ(minimum(xs), -1.0);
  EXPECT_DOUBLE_EQ(maximum(xs), 7.5);
}

TEST(Stats, EmptyInputThrows) {
  EXPECT_THROW(mean({}), std::logic_error);
  EXPECT_THROW(minimum({}), std::logic_error);
  EXPECT_THROW(percentile({}, 50), std::logic_error);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> xs{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 25.0);
  EXPECT_DOUBLE_EQ(median(xs), 25.0);
  EXPECT_DOUBLE_EQ(percentile({42.0}, 77), 42.0);
}

TEST(Stats, PercentileRangeChecked) {
  EXPECT_THROW(percentile({1.0}, -1), std::logic_error);
  EXPECT_THROW(percentile({1.0}, 101), std::logic_error);
}

TEST(Stats, JainsIndexMatchesBruteForceFormula) {
  // Oracle: (sum x)^2 / (n * sum x^2), computed independently here.
  const std::vector<double> xs{12.5, 3.0, 44.0, 7.25, 19.0};
  double sum = 0.0, sum_sq = 0.0;
  for (const double x : xs) {
    sum += x;
    sum_sq += x * x;
  }
  const double oracle = (sum * sum) / (static_cast<double>(xs.size()) * sum_sq);
  EXPECT_DOUBLE_EQ(jains_index(xs), oracle);
  EXPECT_GT(jains_index(xs), 1.0 / static_cast<double>(xs.size()) - 1e-12);
  EXPECT_LT(jains_index(xs), 1.0);
}

TEST(Stats, JainsIndexDegenerateInputsArePerfectlyFair) {
  // Empty and all-zero allocations carry no unfairness signal: define
  // both as 1.0 so scenario runs with no completions stay well-formed.
  EXPECT_DOUBLE_EQ(jains_index({}), 1.0);
  EXPECT_DOUBLE_EQ(jains_index({0.0, 0.0, 0.0}), 1.0);
  EXPECT_DOUBLE_EQ(jains_index({42.0}), 1.0);  // one tenant
}

TEST(Stats, JainsIndexAllEqualIsExactlyOne) {
  // n identical shares: numerator (n*x)^2 equals denominator n*(n*x^2)
  // bitwise, so the result is exactly 1.0 — no tolerance needed.
  EXPECT_EQ(jains_index({7.3, 7.3, 7.3, 7.3}), 1.0);
  EXPECT_EQ(jains_index(std::vector<double>(17, 0.125)), 1.0);
}

TEST(Stats, JainsIndexWorstCaseApproachesOneOverN) {
  // One tenant gets everything: index collapses to 1/n.
  EXPECT_DOUBLE_EQ(jains_index({100.0, 0.0, 0.0, 0.0}), 0.25);
}

TEST(Stats, JainsIndexRejectsNegativeShares) {
  EXPECT_THROW(jains_index({1.0, -2.0}), std::logic_error);
}

}  // namespace
}  // namespace cloudqc
