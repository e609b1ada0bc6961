// Sliding Window Classification (Section III-C).
//
// Slices a side-channel trace into Ninf-sample windows every `stride`
// samples and scores each with the trained CNN. Per the paper, the output
// signal swc is the *linear* (pre-softmax) class-1 score of the fully
// connected block, where the recurrent localization pattern is stronger
// than in the softmax probabilities.
//
// The hot path is zero-copy: score_into standardizes each window straight
// from the trace span into the workspace's reusable batch tensor (no
// per-window staging buffer) and writes scores into caller-owned storage.
// CoLocator, StreamingLocator, and api::Engine's jobs all score through this
// one path, so they share the model's eval forward: depth-first, one
// window through every layer before the next, with no allocation after
// warm-up beyond the logits (see nn/layer.hpp).
//
// The classifier never mutates the model: it requires an eval-mode network
// and stages every batch in a caller-owned (or per-classifier)
// nn::Workspace, while the forward's other scratch belongs to the calling
// thread, so one trained model can serve many concurrent classifiers (see
// api::Engine).
#pragma once

#include <span>
#include <vector>

#include "core/params.hpp"
#include "nn/kernels/pointwise.hpp"
#include "nn/sequential.hpp"

namespace scalocate::core {

struct SlidingWindowResult {
  std::vector<float> scores;  ///< swc: one linear class-1 score per window
  std::size_t stride = 1;     ///< sample distance between window starts
  std::size_t window = 0;     ///< Ninf
};

class SlidingWindowClassifier {
 public:
  /// `batch_size` windows are classified per forward pass. `model` must be
  /// in eval mode (set_training(false)) and must outlive the classifier.
  SlidingWindowClassifier(const nn::Sequential& model, std::size_t window,
                          std::size_t stride, std::size_t batch_size = 64);

  /// Number of windows a trace of n_samples yields (0 when too short).
  std::size_t num_windows(std::size_t n_samples) const {
    return n_samples < window_ ? 0 : (n_samples - window_) / stride_ + 1;
  }

  /// Scores every window of `trace_samples` into `scores_out`, which must
  /// hold num_windows(trace_samples.size()) floats. Windows are
  /// standardized directly into the workspace's batch tensor — no
  /// intermediate copies. Thread-safe for concurrent calls with distinct
  /// workspaces.
  void score_into(std::span<const float> trace_samples,
                  std::span<float> scores_out, nn::Workspace& ws) const;

  /// Scores every window of `trace_samples` using the given scratch
  /// workspace. Thread-safe for concurrent calls with distinct workspaces.
  SlidingWindowResult classify(std::span<const float> trace_samples,
                               nn::Workspace& ws) const;

  /// Convenience using the classifier's own workspace (not thread-safe
  /// across concurrent calls on the same classifier instance).
  SlidingWindowResult classify(std::span<const float> trace_samples) const {
    return classify(trace_samples, scratch_);
  }

  /// Scores `count` pre-extracted, pre-standardized windows laid out
  /// contiguously in `inputs` ([count, 1, window]): the forward half of
  /// score_window_batch.
  void score_batch(const nn::Tensor& inputs, float* scores_out,
                   nn::Workspace& ws) const;

  /// One batch of the zero-copy path, shared by the offline (score_into)
  /// and streaming (StreamingLocator) callers so the staging contract
  /// cannot diverge between them: standardizes windows
  /// `window_at(0..count)` — each a window()-long span — straight into the
  /// workspace's staging tensor and scores them into `scores_out`. The
  /// staging tensor reuses its allocation across calls (only a changed
  /// batch count re-views it).
  template <typename WindowAt>
  void score_window_batch(std::size_t count, WindowAt&& window_at,
                          float* scores_out, nn::Workspace& ws) const {
    nn::Tensor& inputs = ws.staging();
    if (inputs.rank() != 3 || inputs.dim(0) != count || inputs.dim(1) != 1 ||
        inputs.dim(2) != window_)
      inputs.resize({count, 1, window_});
    for (std::size_t i = 0; i < count; ++i)
      nn::kernels::standardize(window_at(i), inputs.data() + i * window_);
    score_batch(inputs, scores_out, ws);
  }

  std::size_t window() const { return window_; }
  std::size_t stride() const { return stride_; }
  std::size_t batch_size() const { return batch_size_; }

 private:
  const nn::Sequential& model_;
  std::size_t window_;
  std::size_t stride_;
  std::size_t batch_size_;
  mutable nn::Workspace scratch_;
};

}  // namespace scalocate::core
