// CoLocator: the end-to-end system of the paper.
//
// Training phase (Figure 1, left): dataset creation from clone-device
// captures -> CNN training -> calibration. Calibration is an addition over
// the paper's text made explicit here: a sliding CNN with global average
// pooling fires as soon as the CO-start motif *enters* the window, so the
// rising edge leads the true start by a roughly constant amount. We measure
// that lead once on the profiling captures (whose true starts are known)
// and subtract it at inference; the paper folds the same correction into
// the CPA's "minor aggregation over time".
//
// Inference phase (Figure 1, right): sliding-window classification, then
// every later stage (segmentation, offsets, template snap, dedup) in the
// one core::Detector that runtime/streaming_locator also drives, so
// streamed detections equal locate() by construction. Inference is const
// and thread-safe: the model is only read, the per-call staging lives in
// an nn::Workspace and every other scratch buffer belongs to the calling
// thread, so one trained CoLocator can serve concurrent locate() calls
// (see api::Engine).
#pragma once

#include <memory>
#include <optional>

#include "core/dataset.hpp"
#include "core/detector.hpp"
#include "core/model.hpp"
#include "core/params.hpp"
#include "core/segmentation.hpp"
#include "core/sliding_window.hpp"
#include "core/trainer.hpp"

namespace scalocate::core {

struct LocatorConfig {
  PipelineParams params;
  CnnConfig cnn = CnnConfig::scaled();
  std::uint64_t seed = 29;
  /// Number of profiling captures used for offset calibration.
  std::size_t calibration_captures = 16;
  /// Sub-stride refinement: after segmentation, each located start is
  /// snapped to the best local match of a short mean-start template within
  /// +/-fine_search_radius() samples. This removes the stride quantization
  /// of the rising edge (the paper's CPA absorbs it with time aggregation
  /// instead; we do both and benchmark the difference in bench_ablations).
  bool fine_align = true;
  /// Length of the fine-alignment template (clamped to n_inf).
  std::size_t fine_template_length = 256;
  /// Search radius of the fine-alignment snap around the corrected rising
  /// edge. 0 = automatic (n_inf + 4*stride samples).
  std::size_t fine_search_radius = 0;
  /// Two detections closer than this fraction of the mean CO length are
  /// duplicates of the same CO; the earlier one is kept. 0 disables.
  double min_separation_fraction = 0.5;
};

class CoLocator {
 public:
  explicit CoLocator(LocatorConfig config);

  /// Trains the CNN from the acquisition campaigns and calibrates the
  /// systematic localization offset. Returns the training report (loss
  /// history + test confusion matrix).
  TrainReport train(const trace::CipherAcquisition& ciphers,
                    const trace::Trace& noise);

  /// Locates CO starts in a new trace (offset-corrected sample indices,
  /// ascending). Throws CorruptSignal when a sample is NaN/Inf. Thread-safe
  /// on a trained locator when each caller passes its own workspace.
  std::vector<std::size_t> locate(std::span<const float> trace_samples,
                                  nn::Workspace& ws) const;
  std::vector<std::size_t> locate(std::span<const float> trace_samples) const;

  /// Everything train() produces beyond the CNN weights. Bundled into
  /// versioned model artifacts (api/artifact) so a fresh process can serve
  /// without retraining.
  struct CalibrationState {
    std::ptrdiff_t coarse_offset = 0;
    std::ptrdiff_t fine_offset = 0;
    double mean_co_length = 0.0;
    float calibrated_threshold = std::numeric_limits<float>::quiet_NaN();
    std::vector<float> fine_template;
  };
  CalibrationState calibration_state() const;

  /// Marks the locator trained with externally restored state (the artifact
  /// load path): the model must already hold the loaded weights; this
  /// installs the calibration results and switches the model to eval mode.
  void restore_calibration(CalibrationState state);

  /// Versioned model artifact: self-describing bundle of config +
  /// architecture + weights + calibration (implemented in api/artifact.cpp;
  /// see scalocate::api for the format and its structured load errors).
  void export_artifact(const std::string& path) const;

  bool is_trained() const { return trained_; }
  /// Total systematic lead removed at inference (coarse + fine stage).
  std::ptrdiff_t calibration_offset() const {
    return coarse_offset_ + fine_offset_;
  }
  std::ptrdiff_t coarse_offset() const { return coarse_offset_; }
  std::ptrdiff_t fine_offset() const { return fine_offset_; }
  double mean_co_length() const { return mean_co_length_; }
  nn::Sequential& model() { return *model_; }
  const nn::Sequential& model() const { return *model_; }
  const LocatorConfig& config() const { return config_; }

  // --- hooks for the streaming runtime (runtime/streaming_locator) ---------

  /// The segmenter configuration locate uses (threshold, median filter
  /// size, expected CO length), derived from params + calibration.
  SegmenterConfig segmenter_config() const;

  /// The core::Detector stages locate and the streaming runtime run, for a
  /// resolved decision `threshold`: median size, merge gap, calibrated
  /// offsets, fine template and radius (when fine_align), and the dedup
  /// separation.
  DetectorConfig detector_config(float threshold) const;

  /// Decision threshold measured on the calibration trace (Otsu). Only
  /// meaningful after train(); NaN before. Streaming inference falls back
  /// to this when the configured threshold is automatic (NaN), since Otsu
  /// over a full trace is unavailable online.
  float calibrated_threshold() const { return calibrated_threshold_; }

  /// Fine-alignment template (empty when fine_align is off or training
  /// produced no template).
  std::span<const float> fine_template() const { return fine_template_; }

  /// Effective fine-alignment search radius around a corrected start.
  std::size_t fine_search_radius() const;

  /// core::snap_to_template with this locator's fine template: `region`
  /// holds the absolute trace samples [region_begin, region_begin +
  /// region.size()); returns the absolute start with the best normalized
  /// correlation. Requires a non-empty template.
  std::size_t refine_in_region(std::span<const float> region,
                               std::size_t region_begin) const;

 private:
  void calibrate(const trace::CipherAcquisition& ciphers);
  void build_fine_template(const trace::CipherAcquisition& ciphers);

  LocatorConfig config_;
  std::unique_ptr<nn::Sequential> model_;
  bool trained_ = false;
  /// Stage-1 offset: median (raw rising edge - true start), measured on the
  /// calibration trace before refinement. The rising edge leads the true
  /// start because the CNN fires as soon as the motif enters the window.
  std::ptrdiff_t coarse_offset_ = 0;
  /// Stage-2 offset: median residual after template refinement.
  std::ptrdiff_t fine_offset_ = 0;
  double mean_co_length_ = 0.0;
  float calibrated_threshold_ = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> fine_template_;
};

}  // namespace scalocate::core
