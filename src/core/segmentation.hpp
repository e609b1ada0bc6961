// Segmentation (Section III-D): swc -> threshold square wave -> median
// filter -> rising edges -> CO start samples (edge index x stride).
//
// Segmenter resolves the automatic settings (Otsu threshold, median size)
// and runs core::Detector, the one implementation of these stages, with
// no offsets, no template snap and no dedup.
#pragma once

#include <limits>
#include <span>
#include <vector>

#include "core/sliding_window.hpp"

namespace scalocate::core {

struct SegmenterConfig {
  /// Decision threshold on the linear class-1 score. NaN = automatic:
  /// Otsu's method on the score histogram, which tracks the bimodal
  /// distribution (plateau scores vs background) without per-cipher tuning.
  float threshold = std::numeric_limits<float>::quiet_NaN();
  /// Median filter window (odd). 0 = automatic, sized from the expected
  /// plateau width n_inf/stride (see auto_median_k): wide enough to remove
  /// isolated classifier glitches, narrow enough to keep real plateaus.
  std::size_t median_filter_k = 0;
  /// Inference window size (for the automatic median filter size).
  std::size_t window_size = 0;
  /// Expected CO length in samples (diagnostics/auto sizing fallback).
  std::size_t expected_co_length = 0;
  /// Plateau-split merging: a low run of at most this many windows between
  /// two high runs in the filtered square wave is treated as an interior
  /// dip of one plateau, so its rising edge is not reported as a separate
  /// CO start. Bridges the raggedness countermeasure scenarios inflict
  /// (interrupt preemption splitting a start plateau, gain steps / clock
  /// jitter chipping windows out of it) without widening the median filter,
  /// which would erase short genuine plateaus. 0 disables.
  std::size_t merge_gap_windows = 0;
  /// Drift-robust automatic threshold: when > 0, the Otsu histogram range
  /// is clipped to the [p, 100-p] percentiles of the score distribution
  /// instead of [min, max], so a handful of outlier scores (AGC gain jumps,
  /// saturated drift) cannot squash the histogram into a few bins. 0 keeps
  /// the exact min/max range.
  double otsu_clip_percentile = 0.0;
};

struct Segmentation {
  std::vector<std::size_t> co_starts;  ///< raw rising edges (sample indices)
  float threshold_used = 0.0f;
  std::size_t median_k_used = 0;
};

class Segmenter {
 public:
  explicit Segmenter(SegmenterConfig config = {});

  Segmentation segment(const SlidingWindowResult& swc) const;

  /// Automatic odd median-filter size for a given plateau width (in
  /// windows): half the plateau, made odd, clamped to [3, 11].
  static std::size_t auto_median_k(std::size_t plateau_windows);

  /// The concrete (odd) median-filter size `segment` will use for a config
  /// and a stride/window pair: the configured size when set, the automatic
  /// size otherwise.
  static std::size_t resolve_median_k(const SegmenterConfig& config,
                                      std::size_t stride, std::size_t window);

  /// The concrete decision threshold `segment` will use on `scores`: the
  /// configured one when set, otherwise otsu_threshold with the config's
  /// clip percentile.
  static float resolve_threshold(const SegmenterConfig& config,
                                 std::span<const float> scores);

  /// Otsu's threshold on a score distribution (256-bin histogram). When
  /// `clip_percentile` > 0 the histogram range is clipped to the
  /// [p, 100-p] percentiles (outliers land in the edge bins); 0 uses the
  /// exact [min, max] range. Throws InvalidArgument on a NaN/Inf score.
  static float otsu_threshold(std::span<const float> scores,
                              double clip_percentile);
  static float otsu_threshold(std::span<const float> scores) {
    return otsu_threshold(scores, 0.0);
  }

 private:
  SegmenterConfig config_;
};

}  // namespace scalocate::core
