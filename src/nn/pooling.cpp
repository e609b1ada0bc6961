#include "nn/pooling.hpp"

#include "common/error.hpp"
#include "nn/kernels/pointwise.hpp"

namespace scalocate::nn {

Tensor GlobalAvgPool1d::forward_train(const Tensor& input,
                                      Workspace& ws) const {
  detail::require(input.rank() == 3,
                  "GlobalAvgPool1d::forward: expected [B, C, N], got " +
                      input.shape_string());
  ws.slot(this).shape = input.shape();  // for backward
  const std::size_t batch = input.dim(0);
  const std::size_t channels = input.dim(1);
  const std::size_t n = input.dim(2);
  detail::require(n >= 1, "GlobalAvgPool1d::forward: empty temporal axis");

  Tensor out({batch, channels});
  const double inv_n = 1.0 / static_cast<double>(n);
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t c = 0; c < channels; ++c) {
      const float* row = input.data() + (b * channels + c) * n;
      out.at(b, c) = static_cast<float>(kernels::sum(n, row) * inv_n);
    }
  }
  return out;
}

Item GlobalAvgPool1d::eval_item(const Item& in, EvalLane& lane) const {
  if (in.rank != 2 || in.dims[1] < 1)
    throw InvalidArgument(
        "GlobalAvgPool1d::eval_item: expected a non-empty [C, N], got " +
        in.shape_string());
  const std::size_t channels = in.dims[0];
  const std::size_t n = in.dims[1];
  float* y = lane.push(channels);
  const double inv_n = 1.0 / static_cast<double>(n);
  for (std::size_t c = 0; c < channels; ++c)
    y[c] = static_cast<float>(kernels::sum(n, in.data + c * n) * inv_n);
  Item out = in.with_data(y);
  out.rank = 1;
  out.dims = {channels};
  return out;
}

Tensor GlobalAvgPool1d::backward(const Tensor& grad_output, Workspace& ws) {
  const std::vector<std::size_t>& in_shape = ws.slot(this).shape;
  detail::require(!in_shape.empty(),
                  "GlobalAvgPool1d::backward before forward");
  const std::size_t batch = in_shape[0];
  const std::size_t channels = in_shape[1];
  const std::size_t n = in_shape[2];
  detail::require(grad_output.rank() == 2 && grad_output.dim(0) == batch &&
                      grad_output.dim(1) == channels,
                  "GlobalAvgPool1d::backward: grad shape mismatch");

  Tensor grad_input(in_shape);
  const float inv_n = 1.0f / static_cast<float>(n);
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t c = 0; c < channels; ++c) {
      const float g = grad_output.at(b, c) * inv_n;
      float* row = grad_input.data() + (b * channels + c) * n;
      for (std::size_t i = 0; i < n; ++i) row[i] = g;
    }
  }
  return grad_input;
}

}  // namespace scalocate::nn
