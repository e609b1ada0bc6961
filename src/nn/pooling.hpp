// Temporal pooling.
//
// GlobalAvgPool1d ([B, C, N] -> [B, C]) is the layer that makes the
// paper's CNN usable with different window sizes at training (Ntrain) and
// inference (Ninf): the feature map is averaged over whatever temporal
// length reaches it (Section III-B). It is the paper model's only pooling.
#pragma once

#include "nn/layer.hpp"

namespace scalocate::nn {

class GlobalAvgPool1d final : public Layer {
 public:
  using Layer::backward;
  Item eval_item(const Item& in, EvalLane& lane) const override;
  Tensor backward(const Tensor& grad_output, Workspace& ws) override;
  std::string name() const override { return "GlobalAvgPool1d"; }

 private:
  Tensor forward_train(const Tensor& input, Workspace& ws) const override;
};

}  // namespace scalocate::nn
