#include "nn/kernels/reference.hpp"

namespace scalocate::nn::kernels {

void conv1d_forward_naive(const float* x, std::size_t batch, std::size_t cin,
                          std::size_t n, const float* w, const float* bias,
                          std::size_t cout, std::size_t kernel, float* out) {
  const std::size_t pad_left = (kernel - 1) / 2;
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t co = 0; co < cout; ++co) {
      float* orow = out + (b * cout + co) * n;
      const float bv = bias[co];
      for (std::size_t i = 0; i < n; ++i) orow[i] = bv;
      for (std::size_t ci = 0; ci < cin; ++ci) {
        const float* xrow = x + (b * cin + ci) * n;
        const float* wrow = w + (co * cin + ci) * kernel;
        for (std::size_t k = 0; k < kernel; ++k) {
          const float wv = wrow[k];
          if (wv == 0.0f) continue;
          // Output positions whose tap k lands inside [0, n).
          const std::size_t lo = k < pad_left ? pad_left - k : 0;
          if (lo >= n) continue;
          const std::size_t max_idx = n - 1 + pad_left;
          if (k > max_idx) continue;
          std::size_t hi = max_idx - k;  // inclusive
          if (hi >= n) hi = n - 1;
          const float* xbase = xrow + (lo + k - pad_left);
          float* obase = orow + lo;
          for (std::size_t i = 0; i <= hi - lo; ++i) obase[i] += wv * xbase[i];
        }
      }
    }
  }
}

void conv1d_backward_naive(const float* x, std::size_t batch, std::size_t cin,
                           std::size_t n, const float* w, std::size_t cout,
                           std::size_t kernel, const float* gout, float* gx,
                           float* gw, float* gb) {
  const std::size_t pad_left = (kernel - 1) / 2;
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t co = 0; co < cout; ++co) {
      const float* gorow = gout + (b * cout + co) * n;
      float acc = 0.0f;
      for (std::size_t i = 0; i < n; ++i) acc += gorow[i];
      gb[co] += acc;

      for (std::size_t ci = 0; ci < cin; ++ci) {
        const float* xrow = x + (b * cin + ci) * n;
        float* gxrow = gx + (b * cin + ci) * n;
        const float* wrow = w + (co * cin + ci) * kernel;
        float* gwrow = gw + (co * cin + ci) * kernel;
        for (std::size_t k = 0; k < kernel; ++k) {
          const std::size_t lo = k < pad_left ? pad_left - k : 0;
          if (lo >= n) continue;
          const std::size_t max_idx = n - 1 + pad_left;
          if (k > max_idx) continue;
          std::size_t hi = max_idx - k;
          if (hi >= n) hi = n - 1;
          const float* xbase = xrow + (lo + k - pad_left);
          float* gxbase = gxrow + (lo + k - pad_left);
          const float* gbase = gorow + lo;
          const float wv = wrow[k];
          float wacc = 0.0f;
          for (std::size_t i = 0; i <= hi - lo; ++i) {
            wacc += gbase[i] * xbase[i];
            gxbase[i] += wv * gbase[i];
          }
          gwrow[k] += wacc;
        }
      }
    }
  }
}

void linear_forward_naive(const float* x, std::size_t batch, std::size_t in,
                          const float* w, const float* bias, std::size_t out_f,
                          float* out) {
  for (std::size_t b = 0; b < batch; ++b) {
    const float* xrow = x + b * in;
    float* orow = out + b * out_f;
    for (std::size_t o = 0; o < out_f; ++o) {
      const float* wrow = w + o * in;
      float acc = bias[o];
      for (std::size_t i = 0; i < in; ++i) acc += wrow[i] * xrow[i];
      orow[o] = acc;
    }
  }
}

void linear_backward_naive(const float* x, std::size_t batch, std::size_t in,
                           const float* w, std::size_t out_f,
                           const float* gout, float* gx, float* gw,
                           float* gb) {
  for (std::size_t b = 0; b < batch; ++b) {
    const float* xrow = x + b * in;
    const float* grow = gout + b * out_f;
    float* gxrow = gx + b * in;
    for (std::size_t o = 0; o < out_f; ++o) {
      const float g = grow[o];
      gb[o] += g;
      const float* wrow = w + o * in;
      float* gwrow = gw + o * in;
      for (std::size_t i = 0; i < in; ++i) {
        gwrow[i] += g * xrow[i];
        gxrow[i] += g * wrow[i];
      }
    }
  }
}

}  // namespace scalocate::nn::kernels
