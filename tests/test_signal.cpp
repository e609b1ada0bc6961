// Unit and property tests for the DSP primitives (common/signal).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/signal.hpp"
#include "common/stats.hpp"

namespace scalocate::signal {
namespace {

TEST(Signal, MedianFilterRemovesImpulse) {
  std::vector<float> xs(21, 0.f);
  xs[10] = 100.f;
  const auto out = median_filter(xs, 3);
  for (float v : out) EXPECT_FLOAT_EQ(v, 0.f);
}

TEST(Signal, MedianFilterPreservesLongRuns) {
  std::vector<float> xs(20, -1.f);
  for (int i = 5; i < 15; ++i) xs[static_cast<std::size_t>(i)] = 1.f;
  const auto out = median_filter(xs, 5);
  EXPECT_FLOAT_EQ(out[10], 1.f);
  EXPECT_FLOAT_EQ(out[2], -1.f);
  EXPECT_EQ(out.size(), xs.size());
}

TEST(Signal, MedianFilterK1IsIdentity) {
  const std::vector<float> xs = {3.f, 1.f, 4.f, 1.f, 5.f};
  EXPECT_EQ(median_filter(xs, 1), xs);
}

TEST(Signal, MedianFilterEvenKThrows) {
  const std::vector<float> xs = {1.f, 2.f};
  EXPECT_THROW(median_filter(xs, 2), InvalidArgument);
  EXPECT_THROW(median_filter(xs, 0), InvalidArgument);
}

// Property: median filter output equals a brute-force reference for random
// inputs over several window sizes.
class MedianFilterProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MedianFilterProperty, MatchesBruteForce) {
  const std::size_t k = GetParam();
  Rng rng(100 + k);
  std::vector<float> xs(64);
  for (auto& v : xs) v = static_cast<float>(rng.uniform(-10.0, 10.0));
  const auto fast = median_filter(xs, k);
  const std::size_t half = k / 2;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const std::size_t lo = i >= half ? i - half : 0;
    const std::size_t hi = std::min(xs.size() - 1, i + half);
    std::vector<float> window(xs.begin() + static_cast<std::ptrdiff_t>(lo),
                              xs.begin() + static_cast<std::ptrdiff_t>(hi) + 1);
    const double expected = stats::median(window);
    EXPECT_NEAR(fast[i], expected, 1e-6) << "i=" << i << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MedianFilterProperty,
                         ::testing::Values(1, 3, 5, 7, 9, 15));

TEST(Signal, MovingAverageConstantIsIdentity) {
  const std::vector<float> xs(16, 2.5f);
  const auto out = moving_average(xs, 5);
  for (float v : out) EXPECT_NEAR(v, 2.5f, 1e-6);
}

TEST(Signal, MovingAverageK1IsIdentity) {
  const std::vector<float> xs = {1.f, 5.f, -2.f};
  const auto out = moving_average(xs, 1);
  for (std::size_t i = 0; i < xs.size(); ++i) EXPECT_NEAR(out[i], xs[i], 1e-6);
}

TEST(Signal, MovingAverageCenterValue) {
  const std::vector<float> xs = {0.f, 3.f, 6.f};
  const auto out = moving_average(xs, 3);
  EXPECT_NEAR(out[1], 3.f, 1e-6);
}

TEST(Signal, NormalizedCrossCorrelationPeaksAtEmbedding) {
  Rng rng(7);
  std::vector<float> kernel(32);
  for (auto& v : kernel) v = static_cast<float>(rng.normal());
  std::vector<float> sig(256);
  for (auto& v : sig) v = static_cast<float>(rng.normal() * 0.2);
  // Embed a scaled+shifted copy at offset 100 (NCC is invariant to both).
  for (std::size_t i = 0; i < kernel.size(); ++i)
    sig[100 + i] = 3.0f * kernel[i] + 5.0f;
  const auto ncc = normalized_cross_correlate(sig, kernel);
  EXPECT_EQ(std::max_element(ncc.begin(), ncc.end()) - ncc.begin(), 100);
  EXPECT_NEAR(ncc[100], 1.0, 1e-4);
  for (float v : ncc) {
    EXPECT_LE(v, 1.0f + 1e-4f);
    EXPECT_GE(v, -1.0f - 1e-4f);
  }
}

TEST(Signal, NormalizedCrossCorrelationConstantTemplateIsZero) {
  const std::vector<float> sig(64, 1.f);
  const std::vector<float> ker(8, 3.f);
  const auto ncc = normalized_cross_correlate(sig, ker);
  for (float v : ncc) EXPECT_FLOAT_EQ(v, 0.f);
}

TEST(Signal, FindPeaksHeightAndDistance) {
  std::vector<float> xs(50, 0.f);
  xs[10] = 5.f;
  xs[12] = 4.f;   // suppressed: within min_distance of the higher peak
  xs[30] = 3.f;
  xs[40] = 0.5f;  // below min height
  const auto peaks = find_peaks(xs, 1.0f, 5);
  EXPECT_EQ(peaks, (std::vector<std::size_t>{10, 30}));
}

TEST(Signal, FindPeaksAtBoundaries) {
  std::vector<float> xs = {5.f, 0.f, 0.f, 0.f, 6.f};
  const auto peaks = find_peaks(xs, 1.0f, 2);
  EXPECT_EQ(peaks, (std::vector<std::size_t>{0, 4}));
}

}  // namespace
}  // namespace scalocate::signal
