// Element-wise activation layers and the softmax helper.
#pragma once

#include "nn/layer.hpp"

namespace scalocate::nn {

/// Rectified linear unit; shape-preserving for any rank.
class ReLU final : public Layer {
 public:
  using Layer::backward;
  Item eval_item(const Item& in, EvalLane& lane) const override;
  Tensor backward(const Tensor& grad_output, Workspace& ws) override;
  std::string name() const override { return "ReLU"; }

 private:
  Tensor forward_train(const Tensor& input, Workspace& ws) const override;
};

/// Row-wise softmax over the last axis of a [B, C] tensor. Not a Layer:
/// training uses the fused softmax-cross-entropy loss, and inference reads
/// the pre-softmax linear scores (Section III-C); this helper exists for
/// callers that want calibrated probabilities.
Tensor softmax(const Tensor& logits);

}  // namespace scalocate::nn
