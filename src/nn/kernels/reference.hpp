// Naive reference kernels for Conv1d and Linear.
//
// These are the original hand-rolled layer loops, kept after the layers
// moved to the GEMM and direct-conv backend (the conv loops reduced to the
// stride-1, "same"-padded conv of the layer). They are the correctness oracle
// for the kernel parity tests (tests/test_nn_kernels.cpp) and the baseline
// side of the before/after conv benchmarks in bench_micro. They are NOT on
// any production path.
#pragma once

#include <cstddef>

namespace scalocate::nn::kernels {

/// out[b, co, j] = bias[co] + sum_{ci,k} w[co, ci, k] * x[b, ci, j+k-pad]
/// with pad = (kernel-1)/2 and zeros outside [0, n): stride 1, "same"
/// padding. x is [batch, cin, n] row-major, w is [cout, cin, kernel], out
/// is [batch, cout, n].
void conv1d_forward_naive(const float* x, std::size_t batch, std::size_t cin,
                          std::size_t n, const float* w, const float* bias,
                          std::size_t cout, std::size_t kernel, float* out);

/// Accumulates gw/gb and writes gx (gx must be zero-initialized).
void conv1d_backward_naive(const float* x, std::size_t batch, std::size_t cin,
                           std::size_t n, const float* w, std::size_t cout,
                           std::size_t kernel, const float* gout, float* gx,
                           float* gw, float* gb);

/// out[b, o] = bias[o] + sum_i w[o, i] * x[b, i].
void linear_forward_naive(const float* x, std::size_t batch, std::size_t in,
                          const float* w, const float* bias, std::size_t out_f,
                          float* out);

/// Accumulates gw/gb and writes gx (gx must be zero-initialized).
void linear_backward_naive(const float* x, std::size_t batch, std::size_t in,
                           const float* w, std::size_t out_f,
                           const float* gout, float* gx, float* gw, float* gb);

}  // namespace scalocate::nn::kernels
