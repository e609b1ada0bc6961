#include "core/segmentation.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "core/detector.hpp"

namespace scalocate::core {

Segmenter::Segmenter(SegmenterConfig config) : config_(config) {}

std::size_t Segmenter::auto_median_k(std::size_t plateau_windows) {
  // ~half the plateau width bridges interior dips and removes glitch runs
  // while never erasing a true plateau; clamp to a sane odd range.
  std::size_t k = plateau_windows / 2;
  if (k < 3) k = 3;
  if (k > 11) k = 11;
  if (k % 2 == 0) ++k;
  return k;
}

std::size_t Segmenter::resolve_median_k(const SegmenterConfig& config,
                                        std::size_t stride,
                                        std::size_t window_from_swc) {
  if (config.median_filter_k != 0) return config.median_filter_k;
  const std::size_t window =
      config.window_size > 0 ? config.window_size : window_from_swc;
  // The high plateau spans the window offsets whose content matches the
  // start distribution: roughly (window + start-motif)/stride positions,
  // with the motif on the order of a twelfth of the CO.
  const std::size_t span = window + config.expected_co_length / 12;
  const std::size_t plateau =
      stride > 0 ? std::max<std::size_t>(1, span / stride) : 4;
  return auto_median_k(plateau);
}

float Segmenter::otsu_threshold(std::span<const float> scores,
                                double clip_percentile) {
  detail::require(!scores.empty(), "otsu_threshold: empty scores");
  detail::require(clip_percentile >= 0.0 && clip_percentile < 50.0,
                  "otsu_threshold: clip percentile must be in [0, 50)");
  detail::require(std::all_of(scores.begin(), scores.end(),
                              [](float s) { return std::isfinite(s); }),
                  "otsu_threshold: non-finite score");
  float lo, hi;
  if (clip_percentile > 0.0) {
    lo = static_cast<float>(stats::percentile(scores, clip_percentile));
    hi = static_cast<float>(stats::percentile(scores, 100.0 - clip_percentile));
  } else {
    lo = stats::min_value(scores);
    hi = stats::max_value(scores);
  }
  if (hi <= lo) return lo;

  constexpr std::size_t kBins = 256;
  std::array<std::size_t, kBins> hist{};
  const double scale = static_cast<double>(kBins - 1) / static_cast<double>(hi - lo);
  for (float s : scores) {
    // Clamp before the cast: with a clipped range, outliers below `lo` map
    // to a negative offset (casting that to unsigned is UB).
    double pos = (static_cast<double>(s) - static_cast<double>(lo)) * scale;
    if (pos < 0.0) pos = 0.0;
    auto bin = static_cast<std::size_t>(pos);
    if (bin >= kBins) bin = kBins - 1;
    ++hist[bin];
  }

  const double total = static_cast<double>(scores.size());
  double sum_all = 0.0;
  for (std::size_t i = 0; i < kBins; ++i)
    sum_all += static_cast<double>(i) * static_cast<double>(hist[i]);

  double best_between = -1.0;
  std::size_t best_bin = kBins / 2;
  double w0 = 0.0, sum0 = 0.0;
  for (std::size_t i = 0; i < kBins; ++i) {
    w0 += static_cast<double>(hist[i]);
    if (w0 == 0.0) continue;
    const double w1 = total - w0;
    if (w1 == 0.0) break;
    sum0 += static_cast<double>(i) * static_cast<double>(hist[i]);
    const double mu0 = sum0 / w0;
    const double mu1 = (sum_all - sum0) / w1;
    const double between = w0 * w1 * (mu0 - mu1) * (mu0 - mu1);
    if (between > best_between) {
      best_between = between;
      best_bin = i;
    }
  }
  return lo + static_cast<float>((static_cast<double>(best_bin) + 0.5) / scale);
}

float Segmenter::resolve_threshold(const SegmenterConfig& config,
                                   std::span<const float> scores) {
  return std::isnan(config.threshold)
             ? otsu_threshold(scores, config.otsu_clip_percentile)
             : config.threshold;
}

Segmentation Segmenter::segment(const SlidingWindowResult& swc) const {
  Segmentation out;
  if (swc.scores.empty()) return out;

  // Threshold (Th), median filter (MF) and rising edges, with no offsets,
  // no template snap and no dedup: the raw edges, in window order.
  DetectorConfig dc;
  dc.threshold = resolve_threshold(config_, swc.scores);
  dc.stride = swc.stride;
  dc.median_k = resolve_median_k(config_, swc.stride, swc.window);
  dc.merge_gap = config_.merge_gap_windows;
  Detector detector(dc);
  detector.push(swc.scores);
  std::vector<Detection> edges;
  detector.advance({}, 0, /*eof=*/true, edges);

  out.co_starts.reserve(edges.size());
  for (const Detection& d : edges) out.co_starts.push_back(d.raw_edge);
  out.threshold_used = dc.threshold;
  out.median_k_used = dc.median_k;
  return out;
}

}  // namespace scalocate::core
