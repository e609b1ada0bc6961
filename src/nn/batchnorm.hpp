// 1-D batch normalization (Ioffe & Szegedy 2015), matching the paper's
// convolutional blocks (Conv1d -> BatchNorm -> ReLU).
//
// Input [B, C, N]: statistics are computed per channel over batch and time
// in training mode; running estimates are used in eval mode.
#pragma once

#include "nn/kernels/gemm.hpp"
#include "nn/layer.hpp"

namespace scalocate::nn {

class BatchNorm1d final : public Layer {
 public:
  explicit BatchNorm1d(std::size_t channels, double eps = 1e-5,
                       double momentum = 0.1);

  using Layer::backward;
  Item eval_item(const Item& in, EvalLane& lane) const override;
  Tensor backward(const Tensor& grad_output, Workspace& ws) override;
  std::vector<Param*> params() override { return {&gamma_, &beta_}; }
  std::vector<std::vector<float>*> buffers() override {
    return {&running_mean_, &running_var_};
  }
  std::string name() const override;

  std::size_t channels() const { return channels_; }

  /// The eval-mode affine y = gamma * ((x - mean) * inv_std) + beta as a
  /// conv epilogue without ReLU: fills inv_std[c] = float(1 /
  /// sqrt(double(var[c]) + eps)) from the running variance, read now, into
  /// `inv_std` (channels() floats), and points at the running mean, gamma
  /// and beta as stored. Nothing is cached across calls. eval_item uses it
  /// too, so the fused conv block and this layer share one rule.
  kernels::ConvEpilogue eval_affine(float* inv_std) const;

  Param& gamma() { return gamma_; }
  Param& beta() { return beta_; }

 private:
  Tensor forward_train(const Tensor& input, Workspace& ws) const override;

  std::size_t channels_;
  double eps_;
  double momentum_;
  Param gamma_;
  Param beta_;
  // Mutable: the running estimates are updated by training-mode forward
  // passes (the one place forward touches layer state). Eval-mode forward
  // only reads them, so sharing an eval model across threads stays safe.
  mutable std::vector<float> running_mean_;
  mutable std::vector<float> running_var_;
};

}  // namespace scalocate::nn
