#include "common/signal.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace scalocate::signal {

float median_of(std::span<const float> xs, std::vector<float>& scratch) {
  detail::require(!xs.empty(), "signal::median_of: empty neighborhood");
  scratch.assign(xs.begin(), xs.end());
  const std::size_t mid = scratch.size() / 2;
  std::nth_element(scratch.begin(),
                   scratch.begin() + static_cast<std::ptrdiff_t>(mid),
                   scratch.end());
  if (scratch.size() % 2 == 1) return scratch[mid];
  const float hi_v = scratch[mid];
  const float lo_v = *std::max_element(
      scratch.begin(), scratch.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5f * (lo_v + hi_v);
}

std::vector<float> median_filter(std::span<const float> xs, std::size_t k) {
  detail::require(k >= 1 && k % 2 == 1,
                  "signal::median_filter: k must be odd and >= 1");
  const std::size_t n = xs.size();
  std::vector<float> out(n);
  if (n == 0) return out;
  const std::size_t half = k / 2;
  std::vector<float> scratch;
  scratch.reserve(k);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t lo = i >= half ? i - half : 0;
    const std::size_t hi = std::min(n - 1, i + half);
    out[i] = median_of(xs.subspan(lo, hi - lo + 1), scratch);
  }
  return out;
}

std::vector<float> moving_average(std::span<const float> xs, std::size_t k) {
  detail::require(k >= 1, "signal::moving_average: k must be >= 1");
  const std::size_t n = xs.size();
  std::vector<float> out(n);
  if (n == 0) return out;
  const std::size_t half = k / 2;
  // Prefix sums for O(n) evaluation.
  std::vector<double> prefix(n + 1, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    prefix[i + 1] = prefix[i] + static_cast<double>(xs[i]);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t lo = i >= half ? i - half : 0;
    const std::size_t hi = std::min(n - 1, i + half);
    const double sum = prefix[hi + 1] - prefix[lo];
    out[i] = static_cast<float>(sum / static_cast<double>(hi - lo + 1));
  }
  return out;
}

std::vector<float> normalized_cross_correlate(std::span<const float> signal,
                                              std::span<const float> kernel) {
  detail::require(kernel.size() >= 2,
                  "signal::normalized_cross_correlate: kernel too short");
  detail::require(signal.size() >= kernel.size(),
                  "signal::normalized_cross_correlate: kernel longer than signal");
  const std::size_t m = kernel.size();
  const std::size_t out_len = signal.size() - m + 1;
  std::vector<float> out(out_len);

  const double km = stats::mean(kernel);
  double kss = 0.0;
  for (float v : kernel) {
    const double d = static_cast<double>(v) - km;
    kss += d * d;
  }
  if (kss <= 0.0) return out;  // constant template correlates with nothing

  // Sliding sums for the signal windows.
  std::vector<double> prefix(signal.size() + 1, 0.0);
  std::vector<double> prefix_sq(signal.size() + 1, 0.0);
  for (std::size_t i = 0; i < signal.size(); ++i) {
    prefix[i + 1] = prefix[i] + static_cast<double>(signal[i]);
    prefix_sq[i + 1] = prefix_sq[i] + static_cast<double>(signal[i]) *
                                          static_cast<double>(signal[i]);
  }
  for (std::size_t t = 0; t < out_len; ++t) {
    const double sum = prefix[t + m] - prefix[t];
    const double sum_sq = prefix_sq[t + m] - prefix_sq[t];
    const double smean = sum / static_cast<double>(m);
    const double sss = sum_sq - sum * smean;
    if (sss <= 1e-12) {
      out[t] = 0.0f;
      continue;
    }
    double cross = 0.0;
    for (std::size_t j = 0; j < m; ++j)
      cross += (static_cast<double>(signal[t + j]) - smean) *
               (static_cast<double>(kernel[j]) - km);
    out[t] = static_cast<float>(cross / std::sqrt(sss * kss));
  }
  return out;
}

std::vector<std::size_t> find_peaks(std::span<const float> xs, float min_height,
                                    std::size_t min_distance) {
  // Collect local maxima above the height threshold.
  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (xs[i] < min_height) continue;
    const bool left_ok = i == 0 || xs[i] >= xs[i - 1];
    const bool right_ok = i + 1 == xs.size() || xs[i] > xs[i + 1];
    if (left_ok && right_ok) candidates.push_back(i);
  }
  // Greedy non-maximum suppression: highest peaks first.
  std::sort(candidates.begin(), candidates.end(),
            [&](std::size_t a, std::size_t b) { return xs[a] > xs[b]; });
  std::vector<std::size_t> kept;
  for (std::size_t c : candidates) {
    bool ok = true;
    for (std::size_t k : kept) {
      const std::size_t dist = c > k ? c - k : k - c;
      if (dist < min_distance) {
        ok = false;
        break;
      }
    }
    if (ok) kept.push_back(c);
  }
  std::sort(kept.begin(), kept.end());
  return kept;
}

}  // namespace scalocate::signal
