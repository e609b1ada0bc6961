#include "nn/pooling.hpp"

#include <sstream>

#include "common/error.hpp"
#include "nn/kernels/pointwise.hpp"

namespace scalocate::nn {

namespace {

/// Max pooling of `rows` rows of length n into rows of length out_len,
/// recording each winner's position in `indices` unless it is null.
void max_pool_rows(const float* x, std::size_t rows, std::size_t n,
                   std::size_t out_len, std::size_t kernel,
                   std::size_t stride, float* y, std::size_t* indices) {
  for (std::size_t r = 0; r < rows; ++r) {
    const float* row = x + r * n;
    float* orow = y + r * out_len;
    std::size_t* irow = indices != nullptr ? indices + r * out_len : nullptr;
    for (std::size_t j = 0; j < out_len; ++j) {
      const std::size_t base = j * stride;
      float best = row[base];
      std::size_t best_i = base;
      for (std::size_t k = 1; k < kernel; ++k) {
        if (row[base + k] > best) {
          best = row[base + k];
          best_i = base + k;
        }
      }
      orow[j] = best;
      if (irow != nullptr) irow[j] = best_i;
    }
  }
}

}  // namespace

Tensor GlobalAvgPool1d::forward(const Tensor& input, Workspace& ws) const {
  detail::require(input.rank() == 3,
                  "GlobalAvgPool1d::forward: expected [B, C, N], got " +
                      input.shape_string());
  // Backward-only cache: skipped in eval mode (see Conv1d::forward).
  ws.slot(this).shape = training_ ? input.shape() : std::vector<std::size_t>{};
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

MaxPool1d::MaxPool1d(std::size_t kernel_size, std::size_t stride)
    : kernel_size_(kernel_size),
      stride_(stride > 0 ? stride : kernel_size) {
  detail::require(kernel_size_ >= 1, "MaxPool1d: kernel_size must be >= 1");
}

std::size_t MaxPool1d::output_length(std::size_t n) const {
  detail::require(n >= kernel_size_, "MaxPool1d: input shorter than kernel");
  return (n - kernel_size_) / stride_ + 1;
}

Tensor MaxPool1d::forward(const Tensor& input, Workspace& ws) const {
  detail::require(input.rank() == 3,
                  "MaxPool1d::forward: expected [B, C, N], got " +
                      input.shape_string());
  const std::size_t batch = input.dim(0);
  const std::size_t channels = input.dim(1);
  const std::size_t n = input.dim(2);
  const std::size_t out_len = output_length(n);

  Workspace::Slot& slot = ws.slot(this);
  // Backward needs the input shape and the winning positions only.
  slot.shape = training_ ? input.shape() : std::vector<std::size_t>{};
  slot.indices.clear();
  if (training_) slot.indices.resize(batch * channels * out_len);

  Tensor out({batch, channels, out_len});
  max_pool_rows(input.data(), batch * channels, n, out_len, kernel_size_,
                stride_, out.data(),
                training_ ? slot.indices.data() : nullptr);
  return out;
}

Item MaxPool1d::eval_item(const Item& in, EvalLane& lane) const {
  if (in.rank != 2)
    throw InvalidArgument("MaxPool1d::eval_item: expected [C, N], got " +
                          in.shape_string());
  const std::size_t out_len = output_length(in.dims[1]);
  float* y = lane.push(in.dims[0] * out_len);
  max_pool_rows(in.data, in.dims[0], in.dims[1], out_len, kernel_size_,
                stride_, y, nullptr);
  Item out = in.with_data(y);
  out.dims[1] = out_len;
  return out;
}

Tensor MaxPool1d::backward(const Tensor& grad_output, Workspace& ws) {
  Workspace::Slot& slot = ws.slot(this);
  const std::vector<std::size_t>& in_shape = slot.shape;
  detail::require(!in_shape.empty(), "MaxPool1d::backward before forward");
  const std::size_t batch = in_shape[0];
  const std::size_t channels = in_shape[1];
  const std::size_t n = in_shape[2];
  const std::size_t out_len = output_length(n);
  detail::require(grad_output.rank() == 3 && grad_output.dim(0) == batch &&
                      grad_output.dim(1) == channels &&
                      grad_output.dim(2) == out_len,
                  "MaxPool1d::backward: grad shape mismatch");

  Tensor grad_input(in_shape);
  for (std::size_t bc = 0; bc < batch * channels; ++bc) {
    const float* grow = grad_output.data() + bc * out_len;
    float* gxrow = grad_input.data() + bc * n;
    const std::size_t* irow = slot.indices.data() + bc * out_len;
    // Overlapping windows can pick the same sample; gradients accumulate.
    for (std::size_t j = 0; j < out_len; ++j) gxrow[irow[j]] += grow[j];
  }
  return grad_input;
}

std::string MaxPool1d::name() const {
  std::ostringstream os;
  os << "MaxPool1d(k=" << kernel_size_ << ", s=" << stride_ << ")";
  return os.str();
}

}  // namespace scalocate::nn
