// Temporal pooling layers.
//
// GlobalAvgPool1d ([B, C, N] -> [B, C]) is the layer that makes the
// paper's CNN usable with different window sizes at training (Ntrain) and
// inference (Ninf): the feature map is averaged over whatever temporal
// length reaches it (Section III-B).
//
// MaxPool1d ([B, C, N] -> [B, C, N/k]-ish) is not part of the paper
// architecture but completes the kernel backend for custom models
// (examples/train_custom_cipher-style variants); its backward routes the
// gradient to the cached argmax positions.
#pragma once

#include "nn/layer.hpp"

namespace scalocate::nn {

class GlobalAvgPool1d final : public Layer {
 public:
  using Layer::backward;
  using Layer::forward;
  Tensor forward(const Tensor& input, Workspace& ws) const override;
  Item eval_item(const Item& in, EvalLane& lane) const override;
  Tensor backward(const Tensor& grad_output, Workspace& ws) override;
  std::string name() const override { return "GlobalAvgPool1d"; }
};

/// Non-overlapping-capable 1-D max pooling with the usual floor output
/// length (N - k) / stride + 1 (no padding).
class MaxPool1d final : public Layer {
 public:
  explicit MaxPool1d(std::size_t kernel_size, std::size_t stride = 0);

  using Layer::backward;
  using Layer::forward;
  Tensor forward(const Tensor& input, Workspace& ws) const override;
  Item eval_item(const Item& in, EvalLane& lane) const override;
  Tensor backward(const Tensor& grad_output, Workspace& ws) override;
  std::string name() const override;

  std::size_t kernel_size() const { return kernel_size_; }
  std::size_t stride_amount() const { return stride_; }
  std::size_t output_length(std::size_t n) const;

 private:
  std::size_t kernel_size_;
  std::size_t stride_;  // defaults to kernel_size (non-overlapping)
};

}  // namespace scalocate::nn
