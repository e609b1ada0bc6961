// The gradient-descent optimizer: Adam, the paper's choice (lr 1e-3,
// Section IV-B).
#pragma once

#include <vector>

#include "nn/layer.hpp"

namespace scalocate::nn {

class Adam {
 public:
  Adam(std::vector<Param*> params, float lr = 1e-3f, float beta1 = 0.9f,
       float beta2 = 0.999f, float eps = 1e-8f);

  /// Applies one update from the accumulated gradients.
  void step();

  /// Clears accumulated gradients (call after step).
  void zero_grad();

 private:
  std::vector<Param*> params_;
  float lr_, beta1_, beta2_, eps_;
  std::size_t t_ = 0;
  std::vector<std::vector<float>> m_;
  std::vector<std::vector<float>> v_;
};

}  // namespace scalocate::nn
