// 1-D convolution layer.
//
// Input  [B, Cin, N], weight [Cout, Cin, K], bias [Cout].
// Zero padding keeps the temporal length when stride == 1 and K is the
// paper's kernel size (64): out length = (N + 2*pad - K)/stride + 1 with
// pad chosen as (K-1)/2-style "same" padding by default.
//
// Forward and backward are lowered to im2col + cache-blocked GEMM
// (nn/kernels/), with pack buffers taken from the caller's Workspace so
// the layer itself stays const and thread-shareable. The pre-refactor
// scalar loops survive as kernels::conv1d_*_naive for parity testing.
#pragma once

#include "nn/layer.hpp"

namespace scalocate::nn {

class Conv1d final : public Layer {
 public:
  /// pad < 0 selects "same" padding for stride 1 (out length == N).
  Conv1d(std::size_t in_channels, std::size_t out_channels,
         std::size_t kernel_size, std::size_t stride = 1, int pad = -1);

  using Layer::backward;
  using Layer::forward;
  Tensor forward(const Tensor& input, Workspace& ws) const override;
  Item eval_item(const Item& in, EvalLane& lane) const override;
  /// eval_item with `epilogue` applied by the conv kernel before its store
  /// (stride 1 only): a conv block's BatchNorm and ReLU in the same call,
  /// as Sequential fuses them. Null is the plain eval_item.
  Item eval_item(const Item& in, EvalLane& lane,
                 const kernels::ConvEpilogue* epilogue) const;
  Tensor backward(const Tensor& grad_output, Workspace& ws) override;
  std::vector<Param*> params() override { return {&weight_, &bias_}; }
  std::string name() const override;

  Param& weight() { return weight_; }
  Param& bias() { return bias_; }
  std::size_t in_channels() const { return in_channels_; }
  std::size_t out_channels() const { return out_channels_; }
  std::size_t kernel_size() const { return kernel_size_; }
  std::size_t stride_amount() const { return stride_; }
  std::size_t pad_left() const { return pad_left_; }
  std::size_t pad_right() const { return pad_right_; }

  /// Output temporal length for an input of length n.
  std::size_t output_length(std::size_t n) const;

 private:
  /// 1x1 stride-1 unpadded convolutions skip im2col: the input already is
  /// the column matrix.
  bool is_pointwise() const;

  std::size_t in_channels_, out_channels_, kernel_size_, stride_;
  std::size_t pad_left_, pad_right_;
  Param weight_;
  Param bias_;
};

}  // namespace scalocate::nn
