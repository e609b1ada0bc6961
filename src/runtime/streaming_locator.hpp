// StreamingLocator: push-based, bounded-memory CO localization.
//
// The offline CoLocator needs the whole trace in memory before it can
// score a single window. This runtime ingests the trace as arbitrary-size
// chunks (feed), keeps only a bounded tail of samples in a ring buffer,
// scores each window once it is complete, and pushes the scores into the
// core::Detector that offline locate() also runs (threshold, median
// filter, edges, offsets + template snap, dedup). This class owns only the
// NaN policy, the ring, scoring and the stream metrics.
//
// Detections are emitted online, as soon as no future sample can change
// them, and equal CoLocator::locate on the concatenated stream by
// construction (the parity suites cover chunks from < one window up to
// the full trace). Two consequences of going online:
//
//   - the decision threshold must be fixed up front: Otsu over the whole
//     trace's score distribution is unavailable mid-stream, so automatic
//     (NaN) thresholds fall back to the one measured on the calibration
//     trace during training (CoLocator::calibrated_threshold);
//   - detections lag the stream head by the median-filter half-width plus
//     the fine-alignment search radius (a few hundred samples), the price
//     of emitting exactly what the offline pipeline would.
#pragma once

#include <string>
#include <vector>

#include "core/locator.hpp"
#include "obs/registry.hpp"
#include "runtime/ring_buffer.hpp"

namespace scalocate::runtime {

/// One located CO, emitted online.
using Detection = core::Detection;

struct StreamingConfig {
  /// What feed() does with a chunk containing non-finite samples (NaN/Inf
  /// — a dying probe, a truncated capture, an injected poison). Either
  /// way the corruption is counted (StreamMetrics::corrupt_samples) and
  /// never reaches the model: unchecked, one NaN propagates through window
  /// standardization into every score of every window containing it.
  enum class NanPolicy {
    /// Throw CorruptSignal and leave the stream untouched: the bad chunk
    /// is not appended, and the caller may keep feeding clean chunks —
    /// detections then match the offline locate over the samples actually
    /// accepted. The default: corruption is loud.
    kReject,
    /// Replace each non-finite sample with 0.0f and continue. Detections
    /// match the offline locate over the sanitized stream.
    kSanitize,
  };
  NanPolicy nan_policy = NanPolicy::kReject;
  /// Windows scored per CNN forward pass.
  std::size_t batch_size = 64;
};

/// Resolved per-stream instrument set; every pointer is set. Streams sharing
/// a prefix (e.g. every stream of one model) aggregate into the same
/// instruments.
struct StreamMetrics {
  obs::Counter* samples_fed = nullptr;
  obs::Counter* windows_scored = nullptr;
  obs::Counter* detections = nullptr;
  /// Non-finite samples seen at feed() boundaries (rejected or sanitized
  /// per StreamingConfig::nan_policy; either way they never reach the
  /// model).
  obs::Counter* corrupt_samples = nullptr;
  /// Samples between the stream head and the detection start at the moment
  /// the detection became final — the online-emission price (median
  /// half-width + refinement radius, see the class comment).
  obs::Histogram* emission_lag_samples = nullptr;

  /// Registers the instrument set under `prefix` in `registry`.
  static StreamMetrics resolve(obs::Registry& registry,
                               const std::string& prefix);
};

class StreamingLocator {
 public:
  /// `locator` must be trained and outlive this object; its model is
  /// shared, never copied. Each StreamingLocator owns the workspace that
  /// stages its windows, and the forward's other scratch belongs to the
  /// feeding thread, so independent instances may run on separate threads
  /// against the same locator. The stream records into `metrics`; by
  /// default the `stream.*` instruments of obs::Registry::global() (an
  /// api::Stream records into its model's `stream.<model>.*`).
  explicit StreamingLocator(
      const core::CoLocator& locator, StreamingConfig config = {},
      StreamMetrics metrics =
          StreamMetrics::resolve(obs::Registry::global(), "stream"));

  /// Pushes a chunk of samples; returns every detection that became final.
  /// A chunk with non-finite samples is handled per
  /// StreamingConfig::nan_policy: rejected with CorruptSignal (stream
  /// state untouched — keep feeding clean chunks) or sanitized to 0.0f.
  std::vector<Detection> feed(std::span<const float> chunk);

  /// Marks end-of-stream and flushes the remaining detections. feed() is
  /// invalid afterwards until reset().
  std::vector<Detection> finish();

  /// Forgets all stream state (keeps the model/config) for a new trace.
  void reset();

  /// Total samples fed so far.
  std::size_t samples_consumed() const { return ring_.size(); }
  /// Windows scored so far.
  std::size_t windows_scored() const { return next_window_; }
  /// Samples currently resident in the ring (bounded-memory check).
  std::size_t resident_samples() const {
    return ring_.size() - ring_.oldest();
  }
  /// Decision threshold: params.threshold when fixed, otherwise the
  /// locator's calibration-trace Otsu threshold.
  float threshold() const { return detector_.config().threshold; }
  std::size_t median_k() const { return detector_.config().median_k; }

 private:
  void pump(bool eof, std::vector<Detection>& out);
  void score_ready_windows();

  core::SlidingWindowClassifier classifier_;
  nn::Workspace ws_;
  StreamingConfig::NanPolicy nan_policy_ = StreamingConfig::NanPolicy::kReject;
  core::Detector detector_;  ///< every stage after scoring

  SampleRing ring_;
  std::size_t next_window_ = 0;  ///< next window index to score
  bool finished_ = false;

  // Reused scratch. (Window staging lives in ws_.staging(): windows are
  // standardized from the ring directly into the batch tensor.)
  std::vector<float> scores_buf_;
  std::vector<float> sanitize_buf_;  ///< feed() NaN-scrub / poison scratch

  StreamMetrics metrics_;
};

}  // namespace scalocate::runtime
