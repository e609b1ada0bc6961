// Fused / vectorizable pointwise and reduction kernels.
//
// Every element-wise loop of the nn layers lives here as a flat,
// branch-free kernel over raw pointers: bias addition, the ReLU family,
// accumulation (residual shortcuts), the scale-shift form of BatchNorm,
// and the double-precision
// reductions the statistics need. Layers stay thin shape-checking
// adapters; everything the optimizer can vectorize is concentrated in
// this translation unit.
//
// Reductions accumulate in double (matching the original layer code), so
// refactoring through this backend does not move training numerics.
#pragma once

#include <cstddef>
#include <span>

namespace scalocate::nn::kernels {

// --- accumulation ---------------------------------------------------------

/// y += x (residual shortcut add, bias-gradient accumulation)
void add_inplace(std::size_t n, const float* x, float* y);

// --- ReLU family ----------------------------------------------------------

/// y = max(x, 0)
void relu(std::size_t n, const float* x, float* y);

/// y = max(x, 0) and mask = (x > 0 ? 1 : 0) — training forward.
void relu_mask(std::size_t n, const float* x, float* y, float* mask);

/// out = a * b (ReLU backward: grad * mask)
void multiply(std::size_t n, const float* a, const float* b, float* out);

// --- bias -----------------------------------------------------------------

/// c[:, j] += bias[j] (linear layout: one bias per output feature column).
void add_bias_cols(float* c, const float* bias, std::size_t rows,
                   std::size_t cols);

/// out[r] += sum of row r (conv bias gradient).
void row_sums_add(const float* c, std::size_t rows, std::size_t cols,
                  float* out);

// --- BatchNorm scale-shift ------------------------------------------------

/// Fused BatchNorm eval row: y = gamma * ((x - mean) * inv_std) + beta in
/// one pass. `y` may alias `x`.
void normalize_scale_shift(std::size_t n, const float* x, float mean,
                           float inv_std, float gamma, float beta, float* y);

/// Training-mode BatchNorm input gradient for one row:
/// gx = coeff * (g - mean_g - xhat * mean_g_xhat), coeff = gamma * inv_std.
/// The scalars stay double and the element math runs in double, exactly
/// as the pre-backend layer loop did — training trajectories must not
/// move across backends (see the matching note in BatchNorm1d::forward).
void bn_input_grad(std::size_t n, const float* g, const float* xhat,
                   double coeff, double mean_g, double mean_g_xhat, float* gx);

// --- reductions -----------------------------------------------------------

/// Sum of x in double precision.
double sum(std::size_t n, const float* x);

/// sum_a += sum(a), dot_ab += sum(a*b) — the two BatchNorm backward
/// reductions in one pass.
void sums_dot(std::size_t n, const float* a, const float* b, double* sum_a,
              double* dot_ab);

/// Two-pass population mean/variance (double accumulation).
void mean_var(std::size_t n, const float* x, double* mean, double* var);

/// dst = (src - mean(src)) / stddev(src); all-zero when stddev <= 1e-9.
/// Exactly the DatasetBuilder::standardize_window transform, writing into
/// a separate destination so window extraction needs no staging copy.
void standardize(std::span<const float> src, float* dst);

}  // namespace scalocate::nn::kernels
