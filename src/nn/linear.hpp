// Fully connected layer: input [B, F_in] -> output [B, F_out].
// Both directions are single sgemm calls into the nn/kernels backend.
#pragma once

#include "nn/layer.hpp"

namespace scalocate::nn {

class Linear final : public Layer {
 public:
  Linear(std::size_t in_features, std::size_t out_features);

  using Layer::backward;
  Item eval_item(const Item& in, EvalLane& lane) const override;
  Tensor backward(const Tensor& grad_output, Workspace& ws) override;
  std::vector<Param*> params() override { return {&weight_, &bias_}; }
  std::string name() const override;

  Param& weight() { return weight_; }
  Param& bias() { return bias_; }

 private:
  Tensor forward_train(const Tensor& input, Workspace& ws) const override;

  std::size_t in_features_, out_features_;
  Param weight_;  // [F_out, F_in]
  Param bias_;    // [F_out]
};

}  // namespace scalocate::nn
