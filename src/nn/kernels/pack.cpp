#include "nn/kernels/pack.hpp"

#include <algorithm>
#include <cstring>

#include "nn/kernels/gemm.hpp"

namespace scalocate::nn::kernels {

namespace {

/// Range [lo, hi] (inclusive) of output positions j whose tap k reads an
/// in-bounds input sample; empty when lo > hi.
struct TapRange {
  std::size_t lo = 1;
  std::size_t hi = 0;
};

TapRange tap_range(std::size_t k, std::size_t n, std::size_t kernel) {
  TapRange r;
  const std::size_t pad_left = conv_pad_left(kernel);
  const std::size_t max_idx = n - 1 + pad_left;
  if (k > max_idx) return r;  // empty
  r.lo = k < pad_left ? pad_left - k : 0;
  if (r.lo >= n) return TapRange{};
  r.hi = std::min(max_idx - k, n - 1);
  return r;
}

}  // namespace

void im2col(const float* x, std::size_t cin, std::size_t n, std::size_t kernel,
            float* col) {
  const std::size_t pad_left = conv_pad_left(kernel);
  for (std::size_t ci = 0; ci < cin; ++ci) {
    const float* xrow = x + ci * n;
    for (std::size_t k = 0; k < kernel; ++k) {
      float* crow = col + (ci * kernel + k) * n;
      const TapRange r = tap_range(k, n, kernel);
      if (r.lo > r.hi) {
        std::fill(crow, crow + n, 0.0f);
        continue;
      }
      std::fill(crow, crow + r.lo, 0.0f);
      std::memcpy(crow + r.lo, xrow + (r.lo + k - pad_left),
                  (r.hi - r.lo + 1) * sizeof(float));
      std::fill(crow + r.hi + 1, crow + n, 0.0f);
    }
  }
}

void col2im(const float* col, std::size_t cin, std::size_t n,
            std::size_t kernel, float* x_grad) {
  const std::size_t pad_left = conv_pad_left(kernel);
  for (std::size_t ci = 0; ci < cin; ++ci) {
    float* grow = x_grad + ci * n;
    for (std::size_t k = 0; k < kernel; ++k) {
      const float* crow = col + (ci * kernel + k) * n;
      const TapRange r = tap_range(k, n, kernel);
      if (r.lo > r.hi) continue;
      float* dst = grow + (r.lo + k - pad_left);
      for (std::size_t i = 0; i <= r.hi - r.lo; ++i) dst[i] += crow[r.lo + i];
    }
  }
}

}  // namespace scalocate::nn::kernels
