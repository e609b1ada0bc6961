#include "core/detector.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "common/signal.hpp"

namespace scalocate::core {

std::size_t snap_to_template(std::span<const float> region,
                             std::size_t region_begin,
                             std::span<const float> tmpl) {
  // Smoothing keeps the single-sample data-dependent term from dominating
  // the envelope match.
  const auto region_s = signal::moving_average(region, 5);
  const auto ncc = signal::normalized_cross_correlate(region_s, tmpl);
  if (ncc.empty()) return region_begin;
  std::size_t best = 0;
  for (std::size_t i = 1; i < ncc.size(); ++i)
    if (ncc[i] > ncc[best]) best = i;
  return region_begin + best;
}

Detector::Detector(DetectorConfig config)
    : config_(config), half_(config.median_k / 2) {
  detail::require(config_.median_k % 2 == 1,
                  "Detector: median filter size must be odd");
}

void Detector::push(std::span<const float> scores) {
  for (const float score : scores)
    square_.push_back(score >= config_.threshold ? 1.0f : -1.0f);
}

void Detector::advance(std::span<const float> samples, std::size_t begin,
                       bool eof, std::vector<Detection>& out) {
  emit_filtered(eof);
  place_ready_edges(samples, begin, eof);
  release_pending(eof, out);
}

void Detector::emit_filtered(bool eof) {
  // Window i's median needs windows [i - half, i + half]: mid-stream it
  // waits for the right neighbors, at eof the right border shrinks.
  const std::size_t total = sq_base_ + square_.size();
  for (; eof ? filt_next_ < total : filt_next_ + half_ < total; ++filt_next_) {
    const std::size_t i = filt_next_;
    const std::size_t lo = i >= half_ ? i - half_ : 0;
    const std::size_t hi = std::min(total - 1, i + half_);
    neighborhood_.assign(
        square_.begin() + static_cast<std::ptrdiff_t>(lo - sq_base_),
        square_.begin() + static_cast<std::ptrdiff_t>(hi - sq_base_) + 1);
    on_filtered_value(i, signal::median_of(neighborhood_, median_scratch_));
    // Drop values no later neighborhood can reach.
    for (; sq_base_ + half_ <= i; ++sq_base_) square_.pop_front();
  }
}

void Detector::on_filtered_value(std::size_t index, float value) {
  // Rising edges are CO starts unless plateau-split merging bridges the low
  // run before them. A high window 0 has no -1 -> +1 transition, so it is a
  // start at sample 0.
  if (index == 0) {
    if (value > 0.0f) raw_edges_.push_back(0);
  } else if (prev_filt_ >= 0.0f && value < 0.0f) {
    last_fall_ = index;
  } else if (prev_filt_ < 0.0f && value >= 0.0f) {
    if (!(last_fall_.has_value() && index - *last_fall_ <= config_.merge_gap))
      raw_edges_.push_back(index * config_.stride);
  }
  prev_filt_ = value;
}

std::optional<std::size_t> Detector::place(std::size_t raw,
                                           std::span<const float> samples,
                                           std::size_t begin, bool eof) const {
  const std::ptrdiff_t corrected =
      static_cast<std::ptrdiff_t>(raw) - config_.coarse_offset;
  std::size_t start = corrected < 0 ? 0 : static_cast<std::size_t>(corrected);
  if (snaps()) {
    const std::size_t base = start;
    const std::size_t len = config_.fine_template.size();
    const std::size_t radius = config_.search_radius;
    const std::size_t head = begin + samples.size();
    // Mid-stream, wait until [base - radius, base + radius + len) has
    // arrived; then the clamp to the trace end cannot bind, because the
    // final length is at least the current head. At eof it uses the true
    // length.
    if (!eof && head < base + radius + len) return std::nullopt;
    const std::ptrdiff_t lo = std::max<std::ptrdiff_t>(
        0, static_cast<std::ptrdiff_t>(base) -
               static_cast<std::ptrdiff_t>(radius));
    const std::ptrdiff_t hi = std::min<std::ptrdiff_t>(
        static_cast<std::ptrdiff_t>(head) - static_cast<std::ptrdiff_t>(len),
        static_cast<std::ptrdiff_t>(base + radius));
    if (hi >= lo) {
      detail::require(static_cast<std::size_t>(lo) >= begin,
                      "Detector::place: snap region already discarded");
      start = snap_to_template(
          samples.subspan(static_cast<std::size_t>(lo) - begin,
                          static_cast<std::size_t>(hi - lo) + len),
          static_cast<std::size_t>(lo), config_.fine_template);
    }
  }
  const std::ptrdiff_t final_start =
      static_cast<std::ptrdiff_t>(start) - config_.fine_offset;
  return final_start < 0 ? 0 : static_cast<std::size_t>(final_start);
}

void Detector::place_ready_edges(std::span<const float> samples,
                                 std::size_t begin, bool eof) {
  for (; !raw_edges_.empty(); raw_edges_.pop_front()) {
    const auto start = place(raw_edges_.front(), samples, begin, eof);
    if (!start) break;
    const Detection d{*start, raw_edges_.front()};
    pending_.insert(
        std::ranges::upper_bound(pending_, d.start, {}, &Detection::start), d);
  }
}

std::ptrdiff_t Detector::earliest_start(std::size_t raw) const {
  // Coarse offset, then at most `radius` leftwards snap, then the fine
  // residual. The clamps at 0 only raise the true value.
  const auto reach =
      snaps() ? static_cast<std::ptrdiff_t>(config_.search_radius) : 0;
  return static_cast<std::ptrdiff_t>(raw) - config_.coarse_offset - reach -
         config_.fine_offset;
}

void Detector::release_pending(bool eof, std::vector<Detection>& out) {
  // Edges not yet filtered start at or after window filt_next_; queued
  // unplaced edges are earlier, and the queue front has the lowest bound.
  std::ptrdiff_t horizon = std::numeric_limits<std::ptrdiff_t>::max();
  if (!eof) {
    horizon = earliest_start(filt_next_ * config_.stride);
    if (!raw_edges_.empty())
      horizon = std::min(horizon, earliest_start(raw_edges_.front()));
  }
  std::size_t released = 0;
  for (; released < pending_.size() &&
         static_cast<std::ptrdiff_t>(pending_[released].start) < horizon;
       ++released) {
    const Detection& d = pending_[released];
    if (config_.min_separation == 0 || !last_kept_.has_value() ||
        d.start >= *last_kept_ + config_.min_separation) {
      out.push_back(d);
      last_kept_ = d.start;
    }
  }
  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<std::ptrdiff_t>(released));
}

std::size_t Detector::oldest_needed() const {
  // The left edge of the snap region of an edge that is queued or not yet
  // filtered.
  const auto reach =
      snaps() ? static_cast<std::ptrdiff_t>(config_.search_radius) : 0;
  std::ptrdiff_t oldest =
      static_cast<std::ptrdiff_t>(filt_next_ * config_.stride) -
      config_.coarse_offset - reach;
  if (!raw_edges_.empty()) {
    const std::ptrdiff_t base = std::max<std::ptrdiff_t>(
        0, static_cast<std::ptrdiff_t>(raw_edges_.front()) -
               config_.coarse_offset);
    oldest = std::min(oldest, base - reach);
  }
  return oldest < 0 ? 0 : static_cast<std::size_t>(oldest);
}

}  // namespace scalocate::core
