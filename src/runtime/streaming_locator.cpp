#include "runtime/streaming_locator.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/signal.hpp"
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
  const std::string p = prefix.empty() ? "stream" : prefix;
  StreamMetrics m;
  m.samples_fed = &registry.counter(p + ".samples_fed");
  m.windows_scored = &registry.counter(p + ".windows_scored");
  m.detections = &registry.counter(p + ".detections");
  m.corrupt_samples = &registry.counter(p + ".corrupt_samples");
  m.emission_lag_samples = &registry.histogram(p + ".emission_lag_samples");
  return m;
}

StreamingLocator::StreamingLocator(const core::CoLocator& locator,
                                   StreamingConfig config)
    : locator_(require_trained(locator)),
      classifier_(locator.model(), locator.config().params.n_inf,
                  locator.config().params.stride, config.batch_size) {
  const core::PipelineParams& params = locator.config().params;
  window_ = params.n_inf;
  stride_ = params.stride;
  batch_size_ = config.batch_size;
  nan_policy_ = config.nan_policy;

  float th = config.threshold;
  if (std::isnan(th)) th = params.threshold;
  if (std::isnan(th)) th = locator.calibrated_threshold();
  detail::require(!std::isnan(th),
                  "StreamingLocator: no usable decision threshold; set "
                  "StreamingConfig::threshold or params.threshold, or "
                  "train() so a calibrated threshold exists");
  threshold_ = th;

  median_k_ = core::Segmenter::resolve_median_k(locator.segmenter_config(),
                                                stride_, window_);
  detail::require(median_k_ % 2 == 1,
                  "StreamingLocator: median filter size must be odd");
  half_ = median_k_ / 2;
  merge_gap_ = locator.segmenter_config().merge_gap_windows;

  coarse_ = locator.coarse_offset();
  fine_ = locator.fine_offset();
  fine_align_ = locator.config().fine_align;
  tmpl_len_ = locator.fine_template().size();
  radius_ = locator.fine_search_radius();
  dedup_ = locator.config().min_separation_fraction > 0.0 &&
           locator.mean_co_length() > 0.0;
  min_gap_ = dedup_ ? static_cast<std::size_t>(
                          locator.config().min_separation_fraction *
                          locator.mean_co_length())
                    : 0;

  if (config.registry)
    metrics_ = StreamMetrics::resolve(*config.registry, config.metric_prefix);
}

void StreamingLocator::reset() {
  ring_.reset();
  next_window_ = 0;
  square_.clear();
  sq_base_ = 0;
  filt_next_ = 0;
  prev_filt_ = 0.0f;
  last_fall_.reset();
  raw_edges_.clear();
  pending_.clear();
  last_kept_.reset();
  finished_ = false;
  corrupt_samples_ = 0;
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
    corrupt_samples_ += scrub.bad;
    if (metrics_.enabled()) metrics_.corrupt_samples->add(scrub.bad);
    if (nan_policy_ == StreamingConfig::NanPolicy::kReject)
      // Stream state untouched: the bad chunk is simply not part of the
      // stream, so the caller can keep feeding clean chunks and parity
      // with offline locate over the accepted samples holds.
      throw CorruptSignal("StreamingLocator::feed: chunk contains " +
                          std::to_string(scrub.bad) +
                          " non-finite sample(s); nan_policy is kReject");
  }
  data = scrub.data;

  if (metrics_.enabled()) metrics_.samples_fed->add(data.size());
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
  emit_filtered(eof);
  refine_ready_edges(eof);
  release_pending(eof, out);
  if (!eof) trim_ring();
}

void StreamingLocator::score_ready_windows() {
  // Score every window fully contained in the stream so far, in batches.
  // Each CNN row is computed independently of its batch neighbors, so the
  // scores match the offline classifier regardless of how the chunk
  // boundaries happen to group the windows.
  std::size_t ready = 0;
  while ((ready = ready_windows()) > 0) {
    const std::size_t count = std::min(ready, batch_size_);
    // Standardize each window straight from the ring into the workspace's
    // staging tensor — the identical zero-copy batch path the offline
    // SlidingWindowClassifier::score_into uses.
    scores_buf_.resize(count);
    classifier_.score_window_batch(
        count, [&](std::size_t i) { return ready_window(i); },
        scores_buf_.data(), ws_);
    for (const float score : scores_buf_)
      square_.push_back(score >= threshold_ ? 1.0f : -1.0f);
    next_window_ += count;
    if (metrics_.enabled()) metrics_.windows_scored->add(count);
  }
}

std::size_t StreamingLocator::ready_windows() const {
  const std::size_t n = ring_.size();
  if (n < window_) return 0;
  const std::size_t total = (n - window_) / stride_ + 1;
  return total > next_window_ ? total - next_window_ : 0;
}

std::span<const float> StreamingLocator::ready_window(std::size_t i) const {
  return ring_.view((next_window_ + i) * stride_, window_);
}

void StreamingLocator::emit_filtered(bool eof) {
  const std::size_t total = next_window_;  // squares produced so far
  while (true) {
    const std::size_t i = filt_next_;
    std::size_t hi;
    if (eof) {
      if (i >= total) break;
      hi = std::min(total - 1, i + half_);  // right border: shrink window
    } else {
      if (i + half_ >= total) break;  // right neighbors not yet scored
      hi = i + half_;
    }
    const std::size_t lo = i >= half_ ? i - half_ : 0;
    neighborhood_.assign(
        square_.begin() + static_cast<std::ptrdiff_t>(lo - sq_base_),
        square_.begin() + static_cast<std::ptrdiff_t>(hi - sq_base_) + 1);
    const float value = signal::median_of(neighborhood_, median_scratch_);
    on_filtered_value(i, value);
    ++filt_next_;
    // Drop square values no future neighborhood can reach.
    const std::size_t keep_from = filt_next_ >= half_ ? filt_next_ - half_ : 0;
    while (sq_base_ < keep_from) {
      square_.pop_front();
      ++sq_base_;
    }
  }
}

void StreamingLocator::on_filtered_value(std::size_t index, float value) {
  // Incremental mirror of Segmenter::segment's edge scan (keep in
  // lockstep): rising edges become CO starts unless plateau-split merging
  // bridges the preceding low run.
  if (index == 0) {
    // A plateau that starts at window 0 has no -1 -> +1 transition; the
    // offline segmenter treats a high beginning as a CO start at sample 0.
    if (value > 0.0f) raw_edges_.push_back(0);
  } else if (prev_filt_ >= 0.0f && value < 0.0f) {
    last_fall_ = index;
  } else if (prev_filt_ < 0.0f && value >= 0.0f) {
    if (!(last_fall_.has_value() && index - *last_fall_ <= merge_gap_))
      raw_edges_.push_back(index * stride_);
  }
  prev_filt_ = value;
}

void StreamingLocator::refine_ready_edges(bool eof) {
  while (!raw_edges_.empty()) {
    const std::size_t raw = raw_edges_.front();
    std::int64_t base64 = static_cast<std::int64_t>(raw) - coarse_;
    if (base64 < 0) base64 = 0;
    const auto base = static_cast<std::size_t>(base64);

    std::size_t start;
    if (fine_align_ && tmpl_len_ > 0) {
      // Mid-stream, wait until the whole search region [base - radius,
      // base + radius + len) is resident; then the trace-end clamp the
      // offline path applies (hi = min(L - len, base + radius)) provably
      // does not bind, because the final length L is at least the current
      // stream length. At eof the clamp is applied with the true L.
      if (!eof && ring_.size() < base + radius_ + tmpl_len_) break;
      const auto len = static_cast<std::int64_t>(tmpl_len_);
      const std::int64_t lo = std::max<std::int64_t>(
          0, static_cast<std::int64_t>(base) - static_cast<std::int64_t>(radius_));
      const std::int64_t hi = std::min<std::int64_t>(
          static_cast<std::int64_t>(ring_.size()) - len,
          static_cast<std::int64_t>(base + radius_));
      if (hi < lo) {
        start = base;
      } else {
        const auto region = ring_.view(
            static_cast<std::size_t>(lo),
            static_cast<std::size_t>(hi - lo) + tmpl_len_);
        start = locator_.refine_in_region(region,
                                          static_cast<std::size_t>(lo));
      }
    } else {
      // No template: the offline refine step is the identity.
      start = base;
    }

    std::int64_t final64 = static_cast<std::int64_t>(start);
    if (fine_align_) final64 -= fine_;
    if (final64 < 0) final64 = 0;

    const Pending p{static_cast<std::size_t>(final64), raw};
    const auto pos = std::upper_bound(
        pending_.begin(), pending_.end(), p,
        [](const Pending& a, const Pending& b) {
          return a.final_start < b.final_start;
        });
    pending_.insert(pos, p);
    raw_edges_.pop_front();
  }
}

std::int64_t StreamingLocator::future_lower_bound(
    std::int64_t raw_sample) const {
  // Smallest final start a rising edge at (or after) raw_sample can map
  // to: coarse correction, then at most `radius` leftwards template snap,
  // then the fine residual. Clamps at 0 only raise the true value, so this
  // is a valid lower bound.
  std::int64_t lb = raw_sample - coarse_;
  if (fine_align_ && tmpl_len_ > 0) lb -= static_cast<std::int64_t>(radius_);
  if (fine_align_) lb -= fine_;
  return lb;
}

void StreamingLocator::release_pending(bool eof, std::vector<Detection>& out) {
  std::int64_t horizon = std::numeric_limits<std::int64_t>::max();
  if (!eof) {
    // Edges not yet confirmed by the median filter start at or after
    // window filt_next_; unrefined queued edges are even earlier, and
    // their lower bounds are monotone, so the queue front dominates.
    horizon = future_lower_bound(
        static_cast<std::int64_t>(filt_next_) *
        static_cast<std::int64_t>(stride_));
    if (!raw_edges_.empty()) {
      horizon = std::min(
          horizon,
          future_lower_bound(static_cast<std::int64_t>(raw_edges_.front())));
    }
  }

  std::size_t released = 0;
  while (released < pending_.size() &&
         (eof || static_cast<std::int64_t>(
                     pending_[released].final_start) < horizon)) {
    const Pending& p = pending_[released];
    // Same duplicate suppression as the offline path, applied in sorted
    // emission order.
    if (!dedup_ || !last_kept_.has_value() ||
        p.final_start >= *last_kept_ + min_gap_) {
      out.push_back(Detection{p.final_start, p.raw_edge});
      last_kept_ = p.final_start;
      if (metrics_.enabled()) {
        metrics_.detections->add();
        // Emission lag: how far the stream head ran ahead before this
        // detection could be finalized.
        metrics_.emission_lag_samples->record(
            ring_.size() > p.final_start ? ring_.size() - p.final_start : 0);
      }
    }
    ++released;
  }
  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<std::ptrdiff_t>(released));
}

void StreamingLocator::trim_ring() {
  // Oldest sample any future stage can still touch: the next unscored
  // window, or the left edge of a fine-alignment search region for an
  // edge that is queued or not yet confirmed.
  std::int64_t oldest =
      static_cast<std::int64_t>(next_window_ * stride_);
  const std::int64_t reach =
      fine_align_ && tmpl_len_ > 0 ? static_cast<std::int64_t>(radius_) : 0;
  const std::int64_t future_raw = static_cast<std::int64_t>(filt_next_) *
                                  static_cast<std::int64_t>(stride_);
  oldest = std::min(oldest, future_raw - coarse_ - reach);
  if (!raw_edges_.empty()) {
    std::int64_t base = static_cast<std::int64_t>(raw_edges_.front()) - coarse_;
    if (base < 0) base = 0;
    oldest = std::min(oldest, base - reach);
  }
  if (oldest < 0) oldest = 0;
  ring_.discard_below(static_cast<std::size_t>(oldest));
}

}  // namespace scalocate::runtime
