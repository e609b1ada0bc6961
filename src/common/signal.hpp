// 1-D signal processing primitives.
//
// These implement the classic DSP blocks the paper's pipeline is built
// from: the median filter of the Segmentation stage (Section III-D; the
// threshold and edge scan around it live in core::Detector), the
// smoothing and normalized correlation of the template snap, and the
// correlation machinery used by the baseline locators (matched filter [10]
// and waveform matching [11]).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace scalocate::signal {

/// Median of a (possibly even-sized) neighborhood, exactly as the sliding
/// median filter computes it at borders: odd sizes take the middle order
/// statistic, even sizes average the two middle ones. `scratch` is
/// overwritten (kept as a parameter so hot loops can reuse the allocation).
/// core::Detector filters incrementally through it, one neighborhood at a
/// time, so it matches median_filter bit for bit, border windows included.
float median_of(std::span<const float> xs, std::vector<float>& scratch);

/// Sliding median filter of odd window size k (Section III-D, "MF" block).
/// Borders are handled by shrinking the window (median of the available
/// neighbors), which keeps the output length equal to the input length.
/// k must be odd and >= 1.
std::vector<float> median_filter(std::span<const float> xs, std::size_t k);

/// Moving average of window k (k >= 1); same-length output, borders shrink.
std::vector<float> moving_average(std::span<const float> xs, std::size_t k);

/// Normalized cross-correlation (Pearson at each lag, in [-1,1]):
/// the sliding-window correlation used by the waveform-matching
/// baseline [11]. Output length: len(signal)-len(kernel)+1.
std::vector<float> normalized_cross_correlate(std::span<const float> signal,
                                              std::span<const float> kernel);

/// Finds local maxima above `min_height`, keeping only peaks at least
/// `min_distance` samples apart (greedy, highest first). Returns sorted
/// ascending indices.
std::vector<std::size_t> find_peaks(std::span<const float> xs,
                                    float min_height,
                                    std::size_t min_distance);

}  // namespace scalocate::signal
