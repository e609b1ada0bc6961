#include "nn/batchnorm.hpp"

#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "nn/kernels/pointwise.hpp"

namespace scalocate::nn {

BatchNorm1d::BatchNorm1d(std::size_t channels, double eps, double momentum)
    : channels_(channels),
      eps_(eps),
      momentum_(momentum),
      gamma_({channels}, "bn.gamma"),
      beta_({channels}, "bn.beta"),
      running_mean_(channels, 0.0f),
      running_var_(channels, 1.0f) {
  gamma_.value.fill(1.0f);
}

Tensor BatchNorm1d::forward_train(const Tensor& input, Workspace& ws) const {
  detail::require(input.rank() == 3 && input.dim(1) == channels_,
                  "BatchNorm1d::forward: expected [B, C, N], got " +
                      input.shape_string());
  const std::size_t batch = input.dim(0);
  const std::size_t n = input.dim(2);
  const std::size_t count = batch * n;

  Tensor out(input.shape());
  Workspace::Slot& slot = ws.slot(this);
  slot.a = Tensor(input.shape());  // normalized activations (xhat)
  slot.scalars.assign(channels_, 0.0f);  // per-channel 1/std
  Tensor& cached_normalized = slot.a;
  std::vector<float>& cached_inv_std = slot.scalars;

  for (std::size_t c = 0; c < channels_; ++c) {
    double mean = 0.0;
    double var = 0.0;
    for (std::size_t b = 0; b < batch; ++b)
      mean += kernels::sum(n, input.data() + (b * channels_ + c) * n);
    mean /= static_cast<double>(count);
    for (std::size_t b = 0; b < batch; ++b) {
      const float* row = input.data() + (b * channels_ + c) * n;
      for (std::size_t i = 0; i < n; ++i) {
        const double d = static_cast<double>(row[i]) - mean;
        var += d * d;
      }
    }
    var /= static_cast<double>(count);
    running_mean_[c] = static_cast<float>(
        (1.0 - momentum_) * static_cast<double>(running_mean_[c]) +
        momentum_ * mean);
    running_var_[c] = static_cast<float>(
        (1.0 - momentum_) * static_cast<double>(running_var_[c]) +
        momentum_ * var);

    const double inv_std = 1.0 / std::sqrt(var + eps_);
    cached_inv_std[c] = static_cast<float>(inv_std);
    // Training keeps the normalize in double (as pre-backend): xhat
    // feeds every gradient, and single-rounded statistics keep the
    // training trajectory identical across kernel backends.
    const float g = gamma_.value.at(c);
    const float be = beta_.value.at(c);
    for (std::size_t b = 0; b < batch; ++b) {
      const std::size_t off = (b * channels_ + c) * n;
      const float* row = input.data() + off;
      float* nrow = cached_normalized.data() + off;
      float* orow = out.data() + off;
      for (std::size_t i = 0; i < n; ++i) {
        const float xhat =
            static_cast<float>((static_cast<double>(row[i]) - mean) * inv_std);
        nrow[i] = xhat;
        orow[i] = g * xhat + be;
      }
    }
  }
  return out;
}

kernels::ConvEpilogue BatchNorm1d::eval_affine(float* inv_std) const {
  for (std::size_t c = 0; c < channels_; ++c)
    inv_std[c] = static_cast<float>(
        1.0 / std::sqrt(static_cast<double>(running_var_[c]) + eps_));
  return {running_mean_.data(), inv_std, gamma_.value.data(),
          beta_.value.data(), /*relu=*/false};
}

Item BatchNorm1d::eval_item(const Item& in, EvalLane& lane) const {
  if (in.rank != 2 || in.dims[0] != channels_)
    throw InvalidArgument("BatchNorm1d::eval_item: expected [C=" +
                          std::to_string(channels_) + ", N], got " +
                          in.shape_string());
  const std::size_t n = in.dims[1];
  const kernels::ConvEpilogue affine = eval_affine(lane.push(channels_));
  float* y = lane.output_for(in);
  for (std::size_t c = 0; c < channels_; ++c)
    kernels::normalize_scale_shift(n, in.data + c * n, affine.mean[c],
                                   affine.inv_std[c], affine.gamma[c],
                                   affine.beta[c], y + c * n);
  return in.with_data(y);
}

Tensor BatchNorm1d::backward(const Tensor& grad_output, Workspace& ws) {
  Workspace::Slot& slot = ws.slot(this);
  const Tensor& xhat = slot.a;
  detail::require(xhat.numel() > 0, "BatchNorm1d::backward before forward");
  detail::require(grad_output.same_shape(xhat),
                  "BatchNorm1d::backward: grad shape mismatch");
  const std::size_t batch = xhat.dim(0);
  const std::size_t n = xhat.dim(2);
  const auto count = static_cast<double>(batch * n);

  Tensor grad_input(xhat.shape());

  for (std::size_t c = 0; c < channels_; ++c) {
    // dL/dgamma, dL/dbeta and the two reduction terms of the input
    // gradient, in one fused pass per row.
    double sum_g = 0.0;        // sum of grad_out
    double sum_g_xhat = 0.0;   // sum of grad_out * xhat
    for (std::size_t b = 0; b < batch; ++b) {
      const std::size_t off = (b * channels_ + c) * n;
      kernels::sums_dot(n, grad_output.data() + off, xhat.data() + off, &sum_g,
                        &sum_g_xhat);
    }
    gamma_.grad.at(c) += static_cast<float>(sum_g_xhat);
    beta_.grad.at(c) += static_cast<float>(sum_g);

    const double g = gamma_.value.at(c);
    const double inv_std = slot.scalars[c];
    // dL/dx = gamma * inv_std * (g_i - mean(g) - xhat_i * mean(g*xhat)),
    // all-double like the forward normalize (training numerics fixed).
    for (std::size_t b = 0; b < batch; ++b) {
      const std::size_t off = (b * channels_ + c) * n;
      kernels::bn_input_grad(n, grad_output.data() + off, xhat.data() + off,
                             g * inv_std, sum_g / count, sum_g_xhat / count,
                             grad_input.data() + off);
    }
  }
  return grad_input;
}

std::string BatchNorm1d::name() const {
  std::ostringstream os;
  os << "BatchNorm1d(" << channels_ << ")";
  return os.str();
}

}  // namespace scalocate::nn
