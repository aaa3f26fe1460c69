#include "metrics/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/check.hpp"

namespace cloudqc {

double mean(const std::vector<double>& xs) {
  CLOUDQC_CHECK(!xs.empty());
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double minimum(const std::vector<double>& xs) {
  CLOUDQC_CHECK(!xs.empty());
  return *std::min_element(xs.begin(), xs.end());
}

double maximum(const std::vector<double>& xs) {
  CLOUDQC_CHECK(!xs.empty());
  return *std::max_element(xs.begin(), xs.end());
}

double percentile(std::vector<double> xs, double p) {
  CLOUDQC_CHECK(!xs.empty());
  CLOUDQC_CHECK(p >= 0.0 && p <= 100.0);
  std::sort(xs.begin(), xs.end());
  if (xs.size() == 1) return xs.front();
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double jains_index(const std::vector<double>& xs) {
  if (xs.empty()) return 1.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (double x : xs) {
    if (x < 0.0) {
      throw std::logic_error("jains_index requires non-negative inputs");
    }
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq == 0.0) return 1.0;
  return (sum * sum) / (static_cast<double>(xs.size()) * sum_sq);
}

}  // namespace cloudqc
