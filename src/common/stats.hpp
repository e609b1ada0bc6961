// Scalar statistics used across the library: descriptive statistics for
// power traces and Pearson correlation for CPA.
#pragma once

#include <span>
#include <vector>

namespace scalocate::stats {

/// Arithmetic mean. Returns 0 for an empty range.
double mean(std::span<const float> xs);
double mean(std::span<const double> xs);

/// Population variance (divides by N). Returns 0 for fewer than 1 element.
double variance(std::span<const float> xs);

/// Population standard deviation.
double stddev(std::span<const float> xs);

/// Pearson correlation coefficient between two equal-length ranges.
/// Returns 0 when either range has zero variance.
double pearson(std::span<const float> xs, std::span<const float> ys);

/// Median of a range (copies internally; does not reorder the input).
/// For even sizes returns the mean of the two central elements.
double median(std::span<const float> xs);

/// p-th percentile (0 <= p <= 100) by nearest-rank with linear interpolation.
double percentile(std::span<const float> xs, double p);

/// Minimum / maximum. Input must be non-empty.
float min_value(std::span<const float> xs);
float max_value(std::span<const float> xs);

}  // namespace scalocate::stats
