#include "nn/activations.hpp"

#include <cmath>

#include "common/error.hpp"
#include "nn/kernels/pointwise.hpp"

namespace scalocate::nn {

Tensor ReLU::forward_train(const Tensor& input, Workspace& ws) const {
  Tensor out(input.shape());
  Tensor& mask = ws.slot(this).a;
  mask = Tensor(input.shape());
  kernels::relu_mask(input.numel(), input.data(), out.data(), mask.data());
  return out;
}

Item ReLU::eval_item(const Item& in, EvalLane& lane) const {
  float* y = lane.output_for(in);
  kernels::relu(in.numel(), in.data, y);
  return in.with_data(y);
}

Tensor ReLU::backward(const Tensor& grad_output, Workspace& ws) {
  const Tensor& mask = ws.slot(this).a;
  detail::require(mask.numel() > 0, "ReLU::backward before forward");
  detail::require(grad_output.same_shape(mask),
                  "ReLU::backward: grad shape mismatch");
  Tensor grad_input(grad_output.shape());
  kernels::multiply(grad_output.numel(), grad_output.data(), mask.data(),
                    grad_input.data());
  return grad_input;
}

Tensor softmax(const Tensor& logits) {
  detail::require(logits.rank() == 2, "softmax: expected [B, C]");
  const std::size_t batch = logits.dim(0);
  const std::size_t classes = logits.dim(1);
  Tensor out(logits.shape());
  for (std::size_t b = 0; b < batch; ++b) {
    const float* row = logits.data() + b * classes;
    float* orow = out.data() + b * classes;
    float max_v = row[0];
    for (std::size_t c = 1; c < classes; ++c)
      if (row[c] > max_v) max_v = row[c];
    double denom = 0.0;
    for (std::size_t c = 0; c < classes; ++c) {
      orow[c] = std::exp(row[c] - max_v);
      denom += static_cast<double>(orow[c]);
    }
    for (std::size_t c = 0; c < classes; ++c)
      orow[c] = static_cast<float>(static_cast<double>(orow[c]) / denom);
  }
  return out;
}

}  // namespace scalocate::nn
