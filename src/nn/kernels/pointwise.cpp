#include "nn/kernels/pointwise.hpp"

#include <cmath>

namespace scalocate::nn::kernels {

void add_inplace(std::size_t n, const float* x, float* y) {
  for (std::size_t i = 0; i < n; ++i) y[i] += x[i];
}

void relu(std::size_t n, const float* x, float* y) {
  for (std::size_t i = 0; i < n; ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void relu_mask(std::size_t n, const float* x, float* y, float* mask) {
  for (std::size_t i = 0; i < n; ++i) {
    const bool positive = x[i] > 0.0f;
    y[i] = positive ? x[i] : 0.0f;
    mask[i] = positive ? 1.0f : 0.0f;
  }
}

void multiply(std::size_t n, const float* a, const float* b, float* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}

void add_bias_cols(float* c, const float* bias, std::size_t rows,
                   std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r) {
    float* crow = c + r * cols;
    for (std::size_t j = 0; j < cols; ++j) crow[j] += bias[j];
  }
}

void row_sums_add(const float* c, std::size_t rows, std::size_t cols,
                  float* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    const float* crow = c + r * cols;
    double acc = 0.0;
    for (std::size_t j = 0; j < cols; ++j) acc += static_cast<double>(crow[j]);
    out[r] += static_cast<float>(acc);
  }
}

void normalize_scale_shift(std::size_t n, const float* x, float mean,
                           float inv_std, float gamma, float beta, float* y) {
  for (std::size_t i = 0; i < n; ++i) {
    const float h = (x[i] - mean) * inv_std;
    y[i] = gamma * h + beta;
  }
}

void bn_input_grad(std::size_t n, const float* g, const float* xhat,
                   double coeff, double mean_g, double mean_g_xhat,
                   float* gx) {
  for (std::size_t i = 0; i < n; ++i)
    gx[i] = static_cast<float>(
        coeff * (static_cast<double>(g[i]) - mean_g -
                 static_cast<double>(xhat[i]) * mean_g_xhat));
}

double sum(std::size_t n, const float* x) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += static_cast<double>(x[i]);
  return acc;
}

void sums_dot(std::size_t n, const float* a, const float* b, double* sum_a,
              double* dot_ab) {
  double s = 0.0;
  double d = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    s += static_cast<double>(a[i]);
    d += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  *sum_a += s;
  *dot_ab += d;
}

void mean_var(std::size_t n, const float* x, double* mean, double* var) {
  double m = 0.0;
  for (std::size_t i = 0; i < n; ++i) m += static_cast<double>(x[i]);
  m = n > 0 ? m / static_cast<double>(n) : 0.0;
  double v = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(x[i]) - m;
    v += d * d;
  }
  v = n > 0 ? v / static_cast<double>(n) : 0.0;
  *mean = m;
  *var = v;
}

void standardize(std::span<const float> src, float* dst) {
  double m = 0.0;
  double v = 0.0;
  mean_var(src.size(), src.data(), &m, &v);
  const double sd = std::sqrt(v);
  if (sd <= 1e-9) {
    for (std::size_t i = 0; i < src.size(); ++i) dst[i] = 0.0f;
    return;
  }
  for (std::size_t i = 0; i < src.size(); ++i)
    dst[i] = static_cast<float>((static_cast<double>(src[i]) - m) / sd);
}

}  // namespace scalocate::nn::kernels
