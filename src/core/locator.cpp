#include "core/locator.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.hpp"
#include "common/signal.hpp"

namespace scalocate::core {

CoLocator::CoLocator(LocatorConfig config)
    : config_(std::move(config)), model_(build_paper_cnn(config_.cnn)) {}

TrainReport CoLocator::train(const trace::CipherAcquisition& ciphers,
                             const trace::Trace& noise) {
  DatasetBuilder builder(config_.params, config_.seed ^ 0x6462ULL);
  const WindowDataset dataset = builder.build(ciphers, noise);
  const DatasetSplit split = builder.split(dataset);

  Trainer trainer(config_.params, config_.seed ^ 0x7472ULL);
  TrainReport report = trainer.fit(*model_, split);
  trained_ = true;

  // Mean CO length from the profiling captures (drives the automatic
  // median-filter size and alignment segment lengths).
  double acc = 0.0;
  std::size_t counted = 0;
  for (const auto& cap : ciphers.captures) {
    acc += static_cast<double>(cap.samples.size());
    ++counted;
  }
  mean_co_length_ = counted > 0 ? acc / static_cast<double>(counted) : 0.0;

  build_fine_template(ciphers);
  calibrate(ciphers);
  return report;
}

void CoLocator::build_fine_template(const trace::CipherAcquisition& ciphers) {
  fine_template_.clear();
  if (!config_.fine_align) return;
  const std::size_t len =
      std::min(config_.fine_template_length, config_.params.n_inf);
  std::vector<double> acc(len, 0.0);
  std::size_t used = 0;
  for (const auto& cap : ciphers.captures) {
    if (cap.samples.size() < len) continue;
    for (std::size_t j = 0; j < len; ++j)
      acc[j] += static_cast<double>(cap.samples[j]);
    ++used;
  }
  if (used == 0) return;
  fine_template_.resize(len);
  for (std::size_t j = 0; j < len; ++j)
    fine_template_[j] = static_cast<float>(acc[j] / static_cast<double>(used));
  fine_template_ = signal::moving_average(fine_template_, 5);
}

std::size_t CoLocator::fine_search_radius() const {
  return config_.fine_search_radius > 0
             ? config_.fine_search_radius
             : config_.params.n_inf + 4 * config_.params.stride;
}

SegmenterConfig CoLocator::segmenter_config() const {
  SegmenterConfig seg_cfg;
  seg_cfg.threshold = config_.params.threshold;
  seg_cfg.median_filter_k = config_.params.median_filter_k;
  seg_cfg.window_size = config_.params.n_inf;
  seg_cfg.expected_co_length = static_cast<std::size_t>(mean_co_length_);
  seg_cfg.merge_gap_windows = config_.params.merge_gap_windows;
  seg_cfg.otsu_clip_percentile = config_.params.otsu_clip_percentile;
  return seg_cfg;
}

DetectorConfig CoLocator::detector_config(float threshold) const {
  const PipelineParams& p = config_.params;
  DetectorConfig dc;
  dc.threshold = threshold;
  dc.stride = p.stride;
  dc.median_k = Segmenter::resolve_median_k(segmenter_config(), p.stride,
                                            p.n_inf);
  dc.merge_gap = p.merge_gap_windows;
  dc.coarse_offset = coarse_offset_;
  if (config_.fine_align) {
    dc.fine_template = fine_template_;
    dc.search_radius = fine_search_radius();
    dc.fine_offset = fine_offset_;
  }
  if (config_.min_separation_fraction > 0.0 && mean_co_length_ > 0.0)
    dc.min_separation = static_cast<std::size_t>(
        config_.min_separation_fraction * mean_co_length_);
  return dc;
}

std::size_t CoLocator::refine_in_region(std::span<const float> region,
                                        std::size_t region_begin) const {
  return snap_to_template(region, region_begin, fine_template_);
}

namespace {

/// Median signed distance from each truth position to its nearest
/// detection, ignoring pairs farther apart than `max_abs`. Returns 0 when
/// nothing matches.
std::ptrdiff_t median_offset(const std::vector<std::size_t>& detections,
                             const std::vector<std::size_t>& truth,
                             std::ptrdiff_t max_abs) {
  std::vector<std::ptrdiff_t> offsets;
  for (std::size_t t : truth) {
    std::ptrdiff_t best = 0;
    std::ptrdiff_t best_abs = max_abs + 1;
    for (std::size_t loc : detections) {
      const std::ptrdiff_t d =
          static_cast<std::ptrdiff_t>(loc) - static_cast<std::ptrdiff_t>(t);
      if (std::abs(d) < best_abs) {
        best_abs = std::abs(d);
        best = d;
      }
    }
    if (best_abs <= max_abs) offsets.push_back(best);
  }
  if (offsets.empty()) return 0;
  std::nth_element(
      offsets.begin(),
      offsets.begin() + static_cast<std::ptrdiff_t>(offsets.size() / 2),
      offsets.end());
  return offsets[offsets.size() / 2];
}

}  // namespace

void CoLocator::calibrate(const trace::CipherAcquisition& ciphers) {
  coarse_offset_ = 0;
  fine_offset_ = 0;
  calibrated_threshold_ = std::numeric_limits<float>::quiet_NaN();
  // Build a calibration trace by concatenating profiling captures: their
  // true starts are the cumulative capture offsets.
  const std::size_t n_cal =
      std::min(config_.calibration_captures, ciphers.captures.size());
  if (n_cal == 0) return;
  std::vector<float> cal_trace;
  std::vector<std::size_t> truth;
  for (std::size_t i = 0; i < n_cal; ++i) {
    truth.push_back(cal_trace.size());
    const auto& s = ciphers.captures[i].samples;
    cal_trace.insert(cal_trace.end(), s.begin(), s.end());
  }

  // Stage 1: raw rising edges (no correction).
  nn::Workspace ws;
  SlidingWindowClassifier classifier(*model_, config_.params.n_inf,
                                     config_.params.stride);
  const SlidingWindowResult swc = classifier.classify(cal_trace, ws);
  const Segmentation seg = Segmenter(segmenter_config()).segment(swc);
  calibrated_threshold_ = seg.threshold_used;

  const auto half_co = static_cast<std::ptrdiff_t>(mean_co_length_ / 2.0);
  coarse_offset_ = median_offset(seg.co_starts, truth, half_co);

  // Stage 2: place each raw edge with the coarse correction and the
  // template snap, and measure the residual. Raw-edge order matters:
  // median_offset breaks distance ties by list order.
  if (!config_.fine_align) return;
  DetectorConfig stage2 = detector_config(seg.threshold_used);
  stage2.fine_offset = 0;
  const Detector placer(stage2);
  std::vector<std::size_t> refined;
  refined.reserve(seg.co_starts.size());
  for (std::size_t raw : seg.co_starts)
    refined.push_back(*placer.place(raw, cal_trace, 0, /*eof=*/true));
  fine_offset_ = median_offset(refined, truth, half_co);
}

std::vector<std::size_t> CoLocator::locate(std::span<const float> trace_samples,
                                           nn::Workspace& ws) const {
  detail::require(trained_,
                  "CoLocator::locate: train() or api::load_artifact() first");
  // Checked before scoring: one NaN would propagate through window
  // standardization into every score of every window containing it.
  const auto bad = std::count_if(trace_samples.begin(), trace_samples.end(),
                                 [](float s) { return !std::isfinite(s); });
  if (bad > 0)
    throw CorruptSignal("CoLocator::locate: trace contains " +
                        std::to_string(bad) + " non-finite sample(s)");

  SlidingWindowClassifier classifier(*model_, config_.params.n_inf,
                                     config_.params.stride);
  const SlidingWindowResult swc = classifier.classify(trace_samples, ws);
  if (swc.scores.empty()) return {};
  Detector detector(detector_config(
      Segmenter::resolve_threshold(segmenter_config(), swc.scores)));
  detector.push(swc.scores);
  std::vector<Detection> found;
  detector.advance(trace_samples, 0, /*eof=*/true, found);
  std::vector<std::size_t> starts;
  starts.reserve(found.size());
  for (const Detection& d : found) starts.push_back(d.start);
  return starts;
}

std::vector<std::size_t> CoLocator::locate(
    std::span<const float> trace_samples) const {
  nn::Workspace ws;
  return locate(trace_samples, ws);
}

CoLocator::CalibrationState CoLocator::calibration_state() const {
  CalibrationState state;
  state.coarse_offset = coarse_offset_;
  state.fine_offset = fine_offset_;
  state.mean_co_length = mean_co_length_;
  state.calibrated_threshold = calibrated_threshold_;
  state.fine_template = fine_template_;
  return state;
}

void CoLocator::restore_calibration(CalibrationState state) {
  coarse_offset_ = state.coarse_offset;
  fine_offset_ = state.fine_offset;
  mean_co_length_ = state.mean_co_length;
  calibrated_threshold_ = state.calibrated_threshold;
  fine_template_ = std::move(state.fine_template);
  model_->set_training(false);
  trained_ = true;
}

}  // namespace scalocate::core
