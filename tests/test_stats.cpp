// Unit tests for descriptive statistics (common/stats).
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace scalocate::stats {
namespace {

const std::vector<float> kSimple = {1.f, 2.f, 3.f, 4.f, 5.f};

TEST(Stats, MeanBasic) { EXPECT_DOUBLE_EQ(mean(kSimple), 3.0); }

TEST(Stats, MeanEmptyIsZero) {
  EXPECT_DOUBLE_EQ(mean(std::span<const float>{}), 0.0);
}

TEST(Stats, VarianceBasic) { EXPECT_DOUBLE_EQ(variance(kSimple), 2.0); }

TEST(Stats, VarianceSingletonIsZero) {
  const std::vector<float> one = {5.f};
  EXPECT_DOUBLE_EQ(variance(one), 0.0);
}

TEST(Stats, StddevBasic) { EXPECT_NEAR(stddev(kSimple), std::sqrt(2.0), 1e-12); }

TEST(Stats, PearsonPerfectPositive) {
  const std::vector<float> x = {1, 2, 3, 4};
  const std::vector<float> y = {2, 4, 6, 8};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-9);
}

TEST(Stats, PearsonPerfectNegative) {
  const std::vector<float> x = {1, 2, 3, 4};
  const std::vector<float> y = {8, 6, 4, 2};
  EXPECT_NEAR(pearson(x, y), -1.0, 1e-9);
}

TEST(Stats, PearsonZeroVarianceIsZero) {
  const std::vector<float> x = {1, 1, 1, 1};
  const std::vector<float> y = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(pearson(x, y), 0.0);
}

TEST(Stats, PearsonLengthMismatchThrows) {
  const std::vector<float> x = {1, 2};
  const std::vector<float> y = {1, 2, 3};
  EXPECT_THROW(pearson(x, y), InvalidArgument);
}

TEST(Stats, MedianOdd) { EXPECT_DOUBLE_EQ(median(kSimple), 3.0); }

TEST(Stats, MedianEven) {
  const std::vector<float> v = {4.f, 1.f, 3.f, 2.f};
  EXPECT_DOUBLE_EQ(median(v), 2.5);
}

TEST(Stats, MedianDoesNotReorderInput) {
  std::vector<float> v = {3.f, 1.f, 2.f};
  (void)median(v);
  EXPECT_EQ(v[0], 3.f);
  EXPECT_EQ(v[1], 1.f);
  EXPECT_EQ(v[2], 2.f);
}

TEST(Stats, MedianEmptyThrows) {
  EXPECT_THROW(median(std::span<const float>{}), InvalidArgument);
}

TEST(Stats, PercentileEndpoints) {
  EXPECT_FLOAT_EQ(static_cast<float>(percentile(kSimple, 0.0)), 1.f);
  EXPECT_FLOAT_EQ(static_cast<float>(percentile(kSimple, 100.0)), 5.f);
  EXPECT_FLOAT_EQ(static_cast<float>(percentile(kSimple, 50.0)), 3.f);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<float> v = {0.f, 10.f};
  EXPECT_NEAR(percentile(v, 25.0), 2.5, 1e-9);
}

TEST(Stats, PercentileOutOfRangeThrows) {
  EXPECT_THROW(percentile(kSimple, -1.0), InvalidArgument);
  EXPECT_THROW(percentile(kSimple, 101.0), InvalidArgument);
}

TEST(Stats, MinMaxArg) {
  const std::vector<float> v = {3.f, -1.f, 7.f, 0.f};
  EXPECT_FLOAT_EQ(min_value(v), -1.f);
  EXPECT_FLOAT_EQ(max_value(v), 7.f);
}

}  // namespace
}  // namespace scalocate::stats
