#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace scalocate::stats {

double mean(std::span<const float> xs) {
  if (xs.empty()) return 0.0;
  double acc = 0.0;
  for (float x : xs) acc += static_cast<double>(x);
  return acc / static_cast<double>(xs.size());
}

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double acc = 0.0;
  for (double x : xs) acc += x;
  return acc / static_cast<double>(xs.size());
}

double variance(std::span<const float> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double acc = 0.0;
  for (float x : xs) {
    const double d = static_cast<double>(x) - m;
    acc += d * d;
  }
  return acc / static_cast<double>(xs.size());
}

double stddev(std::span<const float> xs) { return std::sqrt(variance(xs)); }

double pearson(std::span<const float> xs, std::span<const float> ys) {
  detail::require(xs.size() == ys.size(),
                  "stats::pearson: ranges must have equal length");
  if (xs.size() < 2) return 0.0;
  const double mx = mean(xs);
  const double my = mean(ys);
  double sxx = 0.0, syy = 0.0, sxy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = static_cast<double>(xs[i]) - mx;
    const double dy = static_cast<double>(ys[i]) - my;
    sxx += dx * dx;
    syy += dy * dy;
    sxy += dx * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

double median(std::span<const float> xs) {
  detail::require(!xs.empty(), "stats::median: empty input");
  std::vector<float> tmp(xs.begin(), xs.end());
  const std::size_t mid = tmp.size() / 2;
  std::nth_element(tmp.begin(), tmp.begin() + static_cast<std::ptrdiff_t>(mid),
                   tmp.end());
  if (tmp.size() % 2 == 1) return tmp[mid];
  const float hi = tmp[mid];
  const float lo =
      *std::max_element(tmp.begin(), tmp.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (static_cast<double>(lo) + static_cast<double>(hi));
}

double percentile(std::span<const float> xs, double p) {
  detail::require(!xs.empty(), "stats::percentile: empty input");
  detail::require(p >= 0.0 && p <= 100.0,
                  "stats::percentile: p must be in [0,100]");
  std::vector<float> tmp(xs.begin(), xs.end());
  std::sort(tmp.begin(), tmp.end());
  if (tmp.size() == 1) return tmp[0];
  const double rank = p / 100.0 * static_cast<double>(tmp.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, tmp.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return (1.0 - frac) * static_cast<double>(tmp[lo]) +
         frac * static_cast<double>(tmp[hi]);
}

float min_value(std::span<const float> xs) {
  detail::require(!xs.empty(), "stats::min_value: empty input");
  return *std::min_element(xs.begin(), xs.end());
}

float max_value(std::span<const float> xs) {
  detail::require(!xs.empty(), "stats::max_value: empty input");
  return *std::max_element(xs.begin(), xs.end());
}

}  // namespace scalocate::stats
