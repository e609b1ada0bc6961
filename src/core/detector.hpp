// Detector: the one implementation of every localization stage after
// window scoring (Section III-D plus the calibrated offsets):
//
//   scores -> threshold -> median filter -> rising edges (plateau-split
//   merging) -> coarse offset, template snap, fine residual -> release in
//   start order with duplicate suppression -> detections
//
// Callers push scores as windows are scored and advance over the trace
// samples they still hold. CoLocator::locate pushes a whole trace's scores
// and advances once to eof; StreamingLocator advances after every chunk,
// so streamed detections equal offline ones by construction.
// Segmenter::segment runs it with no offsets, snap or dedup, and
// calibration places single edges through place().
#pragma once

#include <cstddef>
#include <deque>
#include <optional>
#include <span>
#include <vector>

namespace scalocate::core {

/// One located CO.
struct Detection {
  std::size_t start = 0;     ///< offset-corrected, fine-aligned CO start
  std::size_t raw_edge = 0;  ///< uncorrected rising-edge sample (diagnostic)
};

/// Stage parameters, resolved by the caller (Otsu threshold, automatic
/// median size and calibrated offsets are chosen before construction).
struct DetectorConfig {
  float threshold = 0.0f;    ///< a window is high when score >= threshold
  std::size_t stride = 1;    ///< window i's rising edge is sample i * stride
  std::size_t median_k = 1;  ///< odd median filter size (1 = no filter)
  /// A low run of at most this many windows between two high runs is an
  /// interior dip of one plateau, not a new CO start. 0 disables.
  std::size_t merge_gap = 0;
  std::ptrdiff_t coarse_offset = 0;  ///< subtracted from each rising edge
  /// Snapped to within +/-search_radius samples of the coarse-corrected
  /// edge; empty = no snap. The data must outlive the detector.
  std::span<const float> fine_template;
  std::size_t search_radius = 0;
  std::ptrdiff_t fine_offset = 0;  ///< subtracted after the snap
  /// Starts closer than this to the last kept start are dropped as echoes
  /// of the same plateau. 0 = no dedup.
  std::size_t min_separation = 0;
};

/// Start of the best normalized-correlation placement of `tmpl` (>= 2
/// samples) in `region`, the absolute trace samples [region_begin,
/// region_begin + region.size()); both sides are lightly smoothed first.
std::size_t snap_to_template(std::span<const float> region,
                             std::size_t region_begin,
                             std::span<const float> tmpl);

class Detector {
 public:
  explicit Detector(DetectorConfig config);

  /// Appends the scores of the next windows, in window order.
  void push(std::span<const float> scores);

  /// Runs the stages as far as the input allows and appends the detections
  /// that became final to `out`, in start order. `samples` holds the
  /// absolute trace samples [begin, begin + n) up to the stream head; only
  /// the snap reads it, so it may start at oldest_needed(). `eof` ends the
  /// scores and samples and releases everything; reset() before reuse.
  void advance(std::span<const float> samples, std::size_t begin, bool eof,
               std::vector<Detection>& out);

  /// Final start of the rising edge at sample `raw` (coarse offset, snap,
  /// fine residual, each clamped at 0), with `samples` as for advance().
  /// nullopt while !eof and the snap region has not fully arrived. Throws
  /// InvalidArgument when the region starts below `begin`.
  std::optional<std::size_t> place(std::size_t raw,
                                   std::span<const float> samples,
                                   std::size_t begin, bool eof) const;

  /// Oldest absolute sample a later advance() can still read.
  std::size_t oldest_needed() const;

  void reset() { *this = Detector(config_); }
  const DetectorConfig& config() const { return config_; }

 private:
  bool snaps() const { return !config_.fine_template.empty(); }
  void emit_filtered(bool eof);
  void on_filtered_value(std::size_t index, float value);
  void place_ready_edges(std::span<const float> samples, std::size_t begin,
                         bool eof);
  /// Smallest final start an edge at or after `raw` can get.
  std::ptrdiff_t earliest_start(std::size_t raw) const;
  void release_pending(bool eof, std::vector<Detection>& out);

  DetectorConfig config_;
  std::size_t half_ = 0;                  ///< median_k / 2
  std::deque<float> square_;              ///< high/low tail from sq_base_
  std::size_t sq_base_ = 0;               ///< window index of square_[0]
  std::size_t filt_next_ = 0;             ///< next window to filter
  float prev_filt_ = 0.0f;                ///< filtered window filt_next_-1
  std::optional<std::size_t> last_fall_;  ///< latest falling-edge window
  std::deque<std::size_t> raw_edges_;     ///< unplaced edges (samples)
  std::vector<Detection> pending_;        ///< placed, sorted by start
  std::optional<std::size_t> last_kept_;  ///< dedup state
  std::vector<float> neighborhood_, median_scratch_;
};

}  // namespace scalocate::core
