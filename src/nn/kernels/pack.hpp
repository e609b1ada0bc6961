// im2col / col2im packing for 1-D convolution.
//
// im2col lowers one batch item of a Conv1d input [Cin, N] into a column
// matrix [Cin*K, N] (row-major) so the convolution becomes a single GEMM
// with the [Cout, Cin*K] weight matrix. The convolution is stride 1 with
// "same" zero padding, as in sgemm_conv(): conv_pad_left(K) = (K-1)/2
// zeros on the left, the rest of K-1 on the right, so there are N output
// positions. The padding is materialized during packing, which keeps the
// GEMM micro-kernel free of boundary logic. col2im is the adjoint: it
// scatters a column-matrix gradient back onto the (zero-initialized or
// accumulated) input gradient.
//
// The column buffer is caller-provided (Conv1d::backward keeps one per
// thread), so packing allocates nothing on the hot path.
#pragma once

#include <cstddef>

namespace scalocate::nn::kernels {

/// col[(ci*K + k), j] = x[ci, j + k - (K-1)/2], 0 outside [0, n).
/// `x` is one batch item [cin, n]; `col` has room for cin*K*n.
void im2col(const float* x, std::size_t cin, std::size_t n, std::size_t kernel,
            float* col);

/// Adjoint of im2col: x_grad[ci, j + k - (K-1)/2] += col[(ci*K+k), j] for
/// every in-bounds tap. `x_grad` must be pre-initialized (the caller
/// accumulates across batch items into a zeroed gradient tensor).
void col2im(const float* col, std::size_t cin, std::size_t n,
            std::size_t kernel, float* x_grad);

}  // namespace scalocate::nn::kernels
