// Tests for the Alignment stage.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/alignment.hpp"

namespace scalocate::core {
namespace {

std::vector<float> ramp(std::size_t n) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<float>(i);
  return v;
}

TEST(Alignment, CutsSegmentsAtStarts) {
  const auto trace = ramp(100);
  const auto a = align_cos(trace, {10, 50}, 5);
  ASSERT_EQ(a.segments.size(), 2u);
  EXPECT_EQ(a.segment_length, 5u);
  EXPECT_FLOAT_EQ(a.segments[0][0], 10.f);
  EXPECT_FLOAT_EQ(a.segments[1][4], 54.f);
  EXPECT_EQ(a.origins, (std::vector<std::size_t>{10, 50}));
}

TEST(Alignment, DropsSegmentsPastEnd) {
  const auto trace = ramp(100);
  const auto a = align_cos(trace, {90, 96}, 10);
  ASSERT_EQ(a.segments.size(), 1u);
  EXPECT_EQ(a.origins[0], 90u);
}

TEST(Alignment, EmptyStartsGiveEmptyResult) {
  const auto trace = ramp(10);
  const auto a = align_cos(trace, {}, 5);
  EXPECT_TRUE(a.segments.empty());
}

TEST(Alignment, ZeroLengthThrows) {
  const auto trace = ramp(10);
  EXPECT_THROW(align_cos(trace, {0}, 0), Error);
}

}  // namespace
}  // namespace scalocate::core
