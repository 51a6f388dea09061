// Order statistics shared by e2e_bench and e2e_compare.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <vector>

namespace e2e {

/// Quantile q in [0, 1], interpolating linearly between the closest ranks
/// (the "inclusive" method). Used for per-run percentiles of epoch times.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// First, second and third quartile by Python's
/// statistics.quantiles(v, n=4) default ("exclusive") method, the spread
/// definition BASELINE.md uses across runs. A single value is its own three
/// quartiles.
inline std::array<double, 3> quartiles(std::vector<double> v) {
  if (v.empty()) return {0.0, 0.0, 0.0};
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 1) return {v[0], v[0], v[0]};
  std::array<double, 3> q{};
  const std::size_t m = n + 1;
  for (std::size_t i = 1; i <= 3; ++i) {
    const std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, n - 1);
    const double delta = static_cast<double>(i * m) - 4.0 * j;
    q[i - 1] = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  }
  return q;
}

}  // namespace e2e
