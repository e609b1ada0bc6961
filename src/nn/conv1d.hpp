// 1-D convolution layer.
//
// Input  [B, Cin, N], weight [Cout, Cin, K], bias [Cout], output
// [B, Cout, N]: stride 1 with "same" zero padding, (K-1)/2 samples on the
// left and the rest of K-1 on the right, so the temporal length is kept
// for every K, the paper's even K = 64 included (Section III-B).
//
// forward_train and eval_item run the direct conv kernel
// (kernels::sgemm_conv), backward im2col + cache-blocked GEMM
// (nn/kernels/). Their pack buffers and im2col columns belong to the
// calling thread, so the layer itself stays const and thread-shareable.
// The pre-refactor scalar loops survive as kernels::conv1d_*_naive for
// parity testing.
#pragma once

#include "nn/kernels/gemm.hpp"
#include "nn/layer.hpp"

namespace scalocate::nn {

class Conv1d final : public Layer {
 public:
  Conv1d(std::size_t in_channels, std::size_t out_channels,
         std::size_t kernel_size);

  using Layer::backward;
  Item eval_item(const Item& in, EvalLane& lane) const override;
  /// eval_item with `epilogue` applied by the conv kernel before its store:
  /// a conv block's BatchNorm and ReLU in the same call, as Sequential
  /// fuses them. Null is the plain eval_item.
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

  /// Output temporal length for an input of length n: n itself. Throws
  /// InvalidArgument for n == 0.
  std::size_t output_length(std::size_t n) const;

 private:
  Tensor forward_train(const Tensor& input, Workspace& ws) const override;

  std::size_t in_channels_, out_channels_, kernel_size_;
  Param weight_;
  Param bias_;
};

}  // namespace scalocate::nn
