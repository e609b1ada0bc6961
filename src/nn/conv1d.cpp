#include "nn/conv1d.hpp"

#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "nn/kernels/gemm.hpp"
#include "nn/kernels/pack.hpp"
#include "nn/kernels/pointwise.hpp"

namespace scalocate::nn {

Conv1d::Conv1d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel_size)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_size_(kernel_size),
      weight_({out_channels, in_channels, kernel_size}, "conv.weight"),
      bias_({out_channels}, "conv.bias") {
  detail::require(in_channels >= 1 && out_channels >= 1 && kernel_size >= 1,
                  "Conv1d: invalid configuration");
}

std::size_t Conv1d::output_length(std::size_t n) const {
  // Checked without detail::require: its std::string message would
  // allocate on every call of the allocation-free eval step.
  if (n == 0) throw InvalidArgument("Conv1d: empty temporal axis");
  return n;
}

Tensor Conv1d::forward_train(const Tensor& input, Workspace& ws) const {
  detail::require(input.rank() == 3 && input.dim(1) == in_channels_,
                  "Conv1d::forward: expected [B, Cin, N], got " +
                      input.shape_string());
  ws.slot(this).a = input;  // for backward

  const std::size_t batch = input.dim(0);
  const std::size_t n = input.dim(2);
  const std::size_t out_len = output_length(n);

  Tensor out({batch, out_channels_, out_len});
  // The pack-free direct conv: accumulators in registers, input read in
  // place, bias as the accumulator's seed, a single pass over the output.
  kernels::sgemm_conv(out_channels_, batch, weight_.value.data(),
                      bias_.value.data(), input.data(), in_channels_, n,
                      kernel_size_, out.data());
  return out;
}

Item Conv1d::eval_item(const Item& in, EvalLane& lane) const {
  return eval_item(in, lane, nullptr);
}

Item Conv1d::eval_item(const Item& in, EvalLane& lane,
                       const kernels::ConvEpilogue* epilogue) const {
  if (in.rank != 2 || in.dims[0] != in_channels_)
    throw InvalidArgument("Conv1d::eval_item: expected [Cin=" +
                          std::to_string(in_channels_) + ", N], got " +
                          in.shape_string());
  const std::size_t n = in.dims[1];
  const std::size_t out_len = output_length(n);
  float* y = lane.push(out_channels_ * out_len);
  kernels::sgemm_conv(out_channels_, 1, weight_.value.data(),
                      bias_.value.data(), in.data, in_channels_, n,
                      kernel_size_, y, epilogue);
  Item out = in.with_data(y);
  out.dims = {out_channels_, out_len};
  return out;
}

Tensor Conv1d::backward(const Tensor& grad_output, Workspace& ws) {
  const Tensor& input = ws.slot(this).a;
  detail::require(input.numel() > 0, "Conv1d::backward before forward");
  const std::size_t batch = input.dim(0);
  const std::size_t n = input.dim(2);
  const std::size_t out_len = output_length(n);
  detail::require(grad_output.rank() == 3 &&
                      grad_output.dim(0) == batch &&
                      grad_output.dim(1) == out_channels_ &&
                      grad_output.dim(2) == out_len,
                  "Conv1d::backward: grad shape mismatch");

  Tensor grad_input({batch, in_channels_, n});
  const std::size_t ck = in_channels_ * kernel_size_;
  const float* w = weight_.value.data();
  float* gw = weight_.grad.data();
  // The im2col column matrix [Cin*K, out_len] and its gradient: scratch of
  // this call alone, so they belong to the calling thread.
  thread_local std::vector<float> col_buf, dcol_buf;
  // A 1x1 conv skips im2col: the input already is the column matrix.
  const bool pointwise = kernel_size_ == 1;
  if (!pointwise) {
    col_buf.resize(ck * out_len);
    dcol_buf.resize(ck * out_len);
  }

  for (std::size_t b = 0; b < batch; ++b) {
    const float* xb = input.data() + b * in_channels_ * n;
    const float* gob = grad_output.data() + b * out_channels_ * out_len;
    float* gxb = grad_input.data() + b * in_channels_ * n;

    // dBias[co] += sum_j dY[co, j]
    kernels::row_sums_add(gob, out_channels_, out_len, bias_.grad.data());

    // Re-lower the cached input: cheaper than retaining a col matrix per
    // batch item across the whole forward pass.
    const float* col = xb;
    if (!pointwise) {
      kernels::im2col(xb, in_channels_, n, kernel_size_, col_buf.data());
      col = col_buf.data();
    }
    // dW += dY [Cout, out_len] x col^T [out_len, Cin*K]
    kernels::sgemm(false, true, out_channels_, ck, out_len, 1.0f, gob, out_len,
                   col, out_len, 1.0f, gw, ck);
    // dCol = W^T [Cin*K, Cout] x dY [Cout, out_len], scattered back by
    // col2im (overlapping taps accumulate).
    if (pointwise) {
      kernels::sgemm(true, false, ck, out_len, out_channels_, 1.0f, w, ck, gob,
                     out_len, 0.0f, gxb, out_len);
    } else {
      kernels::sgemm(true, false, ck, out_len, out_channels_, 1.0f, w, ck, gob,
                     out_len, 0.0f, dcol_buf.data(), out_len);
      kernels::col2im(dcol_buf.data(), in_channels_, n, kernel_size_, gxb);
    }
  }
  return grad_input;
}

std::string Conv1d::name() const {
  std::ostringstream os;
  os << "Conv1d(" << in_channels_ << "->" << out_channels_
     << ", k=" << kernel_size_ << ")";
  return os.str();
}

}  // namespace scalocate::nn
