// Small statistics helpers for experiment harnesses: means, extremes,
// percentiles and Jain's index.
#pragma once

#include <utility>
#include <vector>

namespace cloudqc {

double mean(const std::vector<double>& xs);
double minimum(const std::vector<double>& xs);
double maximum(const std::vector<double>& xs);

/// p ∈ [0, 100]; linear interpolation between order statistics.
double percentile(std::vector<double> xs, double p);
inline double median(std::vector<double> xs) {
  return percentile(std::move(xs), 50.0);
}

/// Jain's fairness index over non-negative allocations:
/// (Σx)² / (n · Σx²), in (0, 1] with 1 = perfectly equal. Returns 1.0
/// for an empty or all-zero vector (nothing is unfair about nothing);
/// throws std::logic_error on negative inputs.
double jains_index(const std::vector<double>& xs);

}  // namespace cloudqc
