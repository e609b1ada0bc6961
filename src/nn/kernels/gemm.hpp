// Cache-blocked single-precision GEMM: the compute core of the nn backend.
//
// Every dense layer routes its matrix products through sgemm(): Linear's
// forward and backward, and Conv1d's backward (via im2col); Conv1d's
// forward runs sgemm_conv(), a direct convolution. sgemm() is a classic
// three-level blocking (GotoBLAS structure): B is packed into NR-wide
// column panels and A into MR-wide row panels sized for the L1/L2 caches,
// and an MR x NR register-tiled micro-kernel accumulates the product, so
// the inner loop does O(MR*NR) arithmetic per O(MR+NR) loads instead of
// the 1:1 ratio of a naive loop.
//
// Both entry points run the widest kernel tile the CPU supports
// (tiles.hpp: AVX-512, AVX2 or portable). The AVX-512 and AVX2 tiles give
// bit-identical results; the portable tile (no FMA) does not.
// Convs can also apply a conv block's BatchNorm and ReLU to their
// accumulators (ConvEpilogue), bitwise equal to the separate passes.
//
// sgemm_naive() is the reference kernel: a plain triple loop with
// double-precision accumulation, kept (and unit-tested against) so the
// blocked path always has an obviously-correct oracle.
//
// Intra-op threading (see parallel.hpp): when the calling thread's
// intra-op budget allows and the problem is big enough, sgemm statically
// partitions its N (or, for tall problems, M) macro-loop, and sgemm_conv
// its batch loop, across the process-wide compute pool; a one-item conv
// always runs on the calling thread. Each chunk writes a disjoint C tile
// and the per-element summation order is unchanged, so the threaded
// results are bit-identical to the single-threaded kernels at every
// thread count.
//
// Thread-safety: sgemm and sgemm_conv are pure compute over caller-provided
// buffers. Their pack buffers belong to the calling thread (thread-local,
// grown on demand and reused by every later call on that thread), and a
// threaded call's chunks pack into the buffers of the threads that run
// them, so concurrent callers never share a buffer. No kernel runs inside
// another on the same thread, and every pack buffer is fully written
// before it is read, so the results do not depend on which thread's
// buffers a call used.
#pragma once

#include <cstddef>

namespace scalocate::nn::kernels {

/// C = alpha * op(A) * op(B) + beta * C, row-major with leading
/// dimensions lda/ldb/ldc; op(X) = X^T when the trans flag is set.
/// op(A) is m x k, op(B) is k x n, C is m x n. beta == 0 never reads C
/// (so C may be uninitialized).
void sgemm(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
           std::size_t k, float alpha, const float* a, std::size_t lda,
           const float* b, std::size_t ldb, float beta, float* c,
           std::size_t ldc);

/// Eval-mode BatchNorm, and optionally ReLU, applied per output channel
/// to a conv's accumulators before they are stored (the paper's
/// conv block in one kernel call). Each array holds one value per output
/// channel. For a conv result a the stored value is
///   h = (a - mean) * inv_std;  y = gamma * h + beta;  y = y > 0 ? y : 0
/// (the last step only with `relu`): the float sequence of
/// normalize_scale_shift() followed by relu(), rounded the same way
/// because the library is built without floating-point contraction.
struct ConvEpilogue {
  const float* mean;
  const float* inv_std;
  const float* gamma;
  const float* beta;
  bool relu;
};

/// Left zero padding of the stride-1 "same" convolution of sgemm_conv and
/// im2col: the right padding is the rest of kernel - 1, so the output has
/// the input's length. Internal linkage, like load_any in gemm_blocked.hpp:
/// the ISA-specific tile TUs must not share a weak copy with baseline code.
static constexpr std::size_t conv_pad_left(std::size_t kernel) {
  return (kernel - 1) / 2;
}

/// Batched convolution forward, stride 1 with "same" zero padding
/// (conv_pad_left), so x [batch, cin, n] gives out [batch, cout, n] with
/// out[b] = W * im2col(x[b]) + bias. A pack-free direct conv: each tile of
/// outputs accumulates in registers while reading x in place, starting
/// from the bias, and a non-null `epilogue` is applied to the tile before
/// it is stored, so the output is written in one pass. `bias` may be null.
void sgemm_conv(std::size_t cout, std::size_t batch, const float* w,
                const float* bias, const float* x, std::size_t cin,
                std::size_t n, std::size_t kernel, float* out,
                const ConvEpilogue* epilogue = nullptr);

/// Reference kernel: naive triple loop, double accumulators. Same
/// contract as sgemm. Used by the parity tests and as the baseline in
/// bench_micro.
void sgemm_naive(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
                 std::size_t k, float alpha, const float* a, std::size_t lda,
                 const float* b, std::size_t ldb, float beta, float* c,
                 std::size_t ldc);

}  // namespace scalocate::nn::kernels
