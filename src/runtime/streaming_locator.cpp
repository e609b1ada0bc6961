#include "runtime/streaming_locator.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "runtime/fault_injector.hpp"

namespace scalocate::runtime {

namespace {

/// Checked before the classifier member touches the model, so an untrained
/// locator produces this message rather than the classifier's eval-mode
/// complaint.
const core::CoLocator& require_trained(const core::CoLocator& locator) {
  detail::require(locator.is_trained(),
                  "StreamingLocator: locator must be trained");
  return locator;
}

/// The stream's decision threshold: params.threshold when fixed, otherwise
/// the Otsu threshold measured on the calibration trace, since Otsu over
/// the whole trace is unavailable mid-stream.
float stream_threshold(const core::CoLocator& locator) {
  float th = locator.config().params.threshold;
  if (std::isnan(th)) th = locator.calibrated_threshold();
  detail::require(!std::isnan(th),
                  "StreamingLocator: no usable decision threshold; set "
                  "params.threshold, or train() so a calibrated threshold "
                  "exists");
  return th;
}

/// Result of scrub_non_finite: the data to append (possibly `scratch`
/// with zeros substituted) and how many non-finite samples were found.
struct ScrubResult {
  std::span<const float> data;
  std::size_t bad = 0;
};

/// Counts non-finite samples and, under kSanitize, rewrites them to 0.0f in
/// `scratch` (handles `chunk` already aliasing `scratch`, as after fault
/// poisoning). Never throws: the caller owns the accounting and the kReject
/// CorruptSignal, so corruption is counted even when the chunk is rejected.
ScrubResult scrub_non_finite(std::span<const float> chunk,
                             StreamingConfig::NanPolicy policy,
                             std::vector<float>& scratch) {
  ScrubResult r{chunk, 0};
  for (const float sample : chunk)
    if (!std::isfinite(sample)) ++r.bad;
  if (r.bad == 0 || policy == StreamingConfig::NanPolicy::kReject) return r;
  if (chunk.data() != scratch.data())
    scratch.assign(chunk.begin(), chunk.end());
  for (float& sample : scratch)
    if (!std::isfinite(sample)) sample = 0.0f;
  r.data = scratch;
  return r;
}

}  // namespace

StreamMetrics StreamMetrics::resolve(obs::Registry& registry,
                                     const std::string& prefix) {
  StreamMetrics m;
  m.samples_fed = &registry.counter(prefix + ".samples_fed");
  m.windows_scored = &registry.counter(prefix + ".windows_scored");
  m.detections = &registry.counter(prefix + ".detections");
  m.corrupt_samples = &registry.counter(prefix + ".corrupt_samples");
  m.emission_lag_samples =
      &registry.histogram(prefix + ".emission_lag_samples");
  return m;
}

StreamingLocator::StreamingLocator(const core::CoLocator& locator,
                                   StreamingConfig config,
                                   StreamMetrics metrics)
    : classifier_(require_trained(locator).model(),
                  locator.config().params.n_inf,
                  locator.config().params.stride, config.batch_size),
      nan_policy_(config.nan_policy),
      detector_(locator.detector_config(stream_threshold(locator))),
      metrics_(metrics) {}

void StreamingLocator::reset() {
  ring_.reset();
  next_window_ = 0;
  detector_.reset();
  finished_ = false;
}

std::vector<Detection> StreamingLocator::feed(std::span<const float> chunk) {
  detail::require(!finished_,
                  "StreamingLocator::feed after finish (reset() first)");
  // Chaos hook: an armed "stream.feed" site NaN-poisons the chunk HERE,
  // upstream of validation — the injected corruption must be caught by the
  // same scan that catches a real dying probe.
  std::span<const float> data = chunk;
  if (FaultInjector::instance().poison("stream.feed", chunk, sanitize_buf_))
    data = sanitize_buf_;

  const ScrubResult scrub = scrub_non_finite(data, nan_policy_, sanitize_buf_);
  if (scrub.bad > 0) {
    metrics_.corrupt_samples->add(scrub.bad);
    if (nan_policy_ == StreamingConfig::NanPolicy::kReject)
      // Stream state untouched: the bad chunk is simply not part of the
      // stream, so the caller can keep feeding clean chunks and parity
      // with offline locate over the accepted samples holds.
      throw CorruptSignal("StreamingLocator::feed: chunk contains " +
                          std::to_string(scrub.bad) +
                          " non-finite sample(s); nan_policy is kReject");
  }
  data = scrub.data;

  metrics_.samples_fed->add(data.size());
  ring_.append(data);
  std::vector<Detection> out;
  pump(/*eof=*/false, out);
  return out;
}

std::vector<Detection> StreamingLocator::finish() {
  detail::require(!finished_, "StreamingLocator::finish called twice");
  std::vector<Detection> out;
  pump(/*eof=*/true, out);
  finished_ = true;
  return out;
}

void StreamingLocator::pump(bool eof, std::vector<Detection>& out) {
  score_ready_windows();
  const std::size_t head = ring_.size();
  detector_.advance(ring_.view(ring_.oldest(), head - ring_.oldest()),
                    ring_.oldest(), eof, out);
  for (const Detection& d : out) {
    metrics_.detections->add();
    // Emission lag: how far the stream head ran ahead before this
    // detection could be finalized.
    metrics_.emission_lag_samples->record(head > d.start ? head - d.start : 0);
  }
  // Keep the next unscored window and whatever the detector may still read.
  if (!eof)
    ring_.discard_below(std::min(next_window_ * classifier_.stride(),
                                 detector_.oldest_needed()));
}

void StreamingLocator::score_ready_windows() {
  // Score every window fully contained in the stream so far, in batches,
  // standardized straight from the ring into the workspace's staging tensor
  // (the zero-copy path SlidingWindowClassifier::score_into uses). Each CNN
  // row is computed independently of its batch neighbors, so the scores
  // match the offline classifier however chunk boundaries group windows.
  const std::size_t window = classifier_.window();
  const std::size_t stride = classifier_.stride();
  const std::size_t available = classifier_.num_windows(ring_.size());
  while (next_window_ < available) {
    const std::size_t count =
        std::min(available - next_window_, classifier_.batch_size());
    scores_buf_.resize(count);
    classifier_.score_window_batch(
        count,
        [&](std::size_t i) {
          return ring_.view((next_window_ + i) * stride, window);
        },
        scores_buf_.data(), ws_);
    detector_.push(scores_buf_);
    next_window_ += count;
    metrics_.windows_scored->add(count);
  }
}

}  // namespace scalocate::runtime
