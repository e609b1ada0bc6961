// Scalar statistics used across the library: descriptive statistics for
// power traces, Pearson correlation for CPA, and an online (Welford)
// accumulator for incremental correlation over growing trace sets.
#pragma once

#include <cstddef>
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

/// Online mean/variance accumulator (Welford). Numerically stable for the
/// long accumulations done by the incremental CPA engine.
class RunningMoments {
 public:
  void add(double x);
  std::size_t count() const { return n_; }
  double mean() const { return mean_; }
  /// Population variance (N denominator). 0 when fewer than 2 samples.
  double variance() const;
  double stddev() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Online accumulator of Pearson correlation between paired samples.
/// Used by the CPA engine to update correlations one trace at a time.
class RunningCorrelation {
 public:
  void add(double x, double y);
  std::size_t count() const { return n_; }
  /// Current correlation estimate; 0 when undefined (fewer than 2 samples or
  /// zero variance on either side).
  double correlation() const;

 private:
  std::size_t n_ = 0;
  double mean_x_ = 0.0, mean_y_ = 0.0;
  double m2_x_ = 0.0, m2_y_ = 0.0;
  double cov_ = 0.0;
};

}  // namespace scalocate::stats
