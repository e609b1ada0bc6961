#include "nn/linear.hpp"

#include <sstream>

#include "common/error.hpp"
#include "nn/kernels/gemm.hpp"
#include "nn/kernels/pointwise.hpp"

namespace scalocate::nn {

Linear::Linear(std::size_t in_features, std::size_t out_features)
    : in_features_(in_features),
      out_features_(out_features),
      weight_({out_features, in_features}, "linear.weight"),
      bias_({out_features}, "linear.bias") {
  detail::require(in_features >= 1 && out_features >= 1,
                  "Linear: invalid configuration");
}

Tensor Linear::forward_train(const Tensor& input, Workspace& ws) const {
  detail::require(input.rank() == 2 && input.dim(1) == in_features_,
                  "Linear::forward: expected [B, " +
                      std::to_string(in_features_) + "], got " +
                      input.shape_string());
  ws.slot(this).a = input;  // for backward
  const std::size_t batch = input.dim(0);
  Tensor out({batch, out_features_});
  // out = X [B, Fin] x W^T ([Fout, Fin] transposed), then the bias row.
  kernels::sgemm(false, true, batch, out_features_, in_features_, 1.0f,
                 input.data(), in_features_, weight_.value.data(), in_features_,
                 0.0f, out.data(), out_features_);
  kernels::add_bias_cols(out.data(), bias_.value.data(), batch, out_features_);
  return out;
}

Item Linear::eval_item(const Item& in, EvalLane& lane) const {
  if (in.rank != 1 || in.dims[0] != in_features_)
    throw InvalidArgument("Linear::eval_item: expected [" +
                          std::to_string(in_features_) + "], got " +
                          in.shape_string());
  float* y = lane.push(out_features_);
  kernels::sgemm(false, true, 1, out_features_, in_features_, 1.0f, in.data,
                 in_features_, weight_.value.data(), in_features_, 0.0f, y,
                 out_features_);
  kernels::add_bias_cols(y, bias_.value.data(), 1, out_features_);
  Item out = in.with_data(y);
  out.dims = {out_features_};
  return out;
}

Tensor Linear::backward(const Tensor& grad_output, Workspace& ws) {
  const Tensor& input = ws.slot(this).a;
  detail::require(input.numel() > 0, "Linear::backward before forward");
  const std::size_t batch = input.dim(0);
  detail::require(grad_output.rank() == 2 && grad_output.dim(0) == batch &&
                      grad_output.dim(1) == out_features_,
                  "Linear::backward: grad shape mismatch");

  Tensor grad_input({batch, in_features_});
  // dBias[o] += sum_b dY[b, o]; dY columns are features, so accumulate per
  // batch row.
  float* gb = bias_.grad.data();
  for (std::size_t b = 0; b < batch; ++b)
    kernels::add_inplace(out_features_,
                         grad_output.data() + b * out_features_, gb);
  // dW += dY^T [Fout, B] x X [B, Fin]
  kernels::sgemm(true, false, out_features_, in_features_, batch, 1.0f,
                 grad_output.data(), out_features_, input.data(), in_features_,
                 1.0f, weight_.grad.data(), in_features_);
  // dX = dY [B, Fout] x W [Fout, Fin]
  kernels::sgemm(false, false, batch, in_features_, out_features_, 1.0f,
                 grad_output.data(), out_features_, weight_.value.data(),
                 in_features_, 0.0f, grad_input.data(), in_features_);
  return grad_input;
}

std::string Linear::name() const {
  std::ostringstream os;
  os << "Linear(" << in_features_ << "->" << out_features_ << ")";
  return os.str();
}

}  // namespace scalocate::nn
