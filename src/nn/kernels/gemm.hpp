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
// Thread-safety: sgemm is pure compute over caller-provided buffers; the
// pack buffers live in a caller-owned GemmScratch (one per nn::Workspace,
// hence one per concurrent inference caller). The threaded driver packs
// into per-chunk lanes of the same scratch, so concurrent callers still
// never share buffers.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace scalocate::nn::kernels {

/// Caller-owned packing buffers reused across sgemm calls (grown on
/// demand, never shrunk). Not shareable between concurrent callers.
struct GemmScratch {
  std::vector<float> pack_a;  ///< MC x KC block of A, MR-row panels
  std::vector<float> pack_b;  ///< KC x NC block of B, NR-column panels

  GemmScratch() = default;
  // Copying a workspace must not duplicate the per-chunk lanes: they are
  // transient scratch regrown on demand, so a copy starts with none.
  GemmScratch(const GemmScratch& other)
      : pack_a(other.pack_a), pack_b(other.pack_b) {}
  GemmScratch& operator=(const GemmScratch& other) {
    pack_a = other.pack_a;
    pack_b = other.pack_b;
    extra_lanes_.clear();
    return *this;
  }
  GemmScratch(GemmScratch&&) = default;
  GemmScratch& operator=(GemmScratch&&) = default;

  /// Per-chunk scratch for the threaded driver: lane(0) is this object
  /// itself; higher lanes are grown on demand and reused across calls, so
  /// a warmed-up workspace allocates nothing on the hot path. Callers
  /// must not invoke lane() concurrently (the driver grows the lanes
  /// before fanning out and only reads them inside the parallel region).
  GemmScratch& lane(std::size_t index);

 private:
  std::vector<std::unique_ptr<GemmScratch>> extra_lanes_;
};

/// C = alpha * op(A) * op(B) + beta * C, row-major with leading
/// dimensions lda/ldb/ldc; op(X) = X^T when the trans flag is set.
/// op(A) is m x k, op(B) is k x n, C is m x n. beta == 0 never reads C
/// (so C may be uninitialized).
void sgemm(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
           std::size_t k, float alpha, const float* a, std::size_t lda,
           const float* b, std::size_t ldb, float beta, float* c,
           std::size_t ldc, GemmScratch& scratch);

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
                GemmScratch& scratch,
                const ConvEpilogue* epilogue = nullptr);

/// Reference kernel: naive triple loop, double accumulators. Same
/// contract as sgemm. Used by the parity tests and as the baseline in
/// bench_micro.
void sgemm_naive(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
                 std::size_t k, float alpha, const float* a, std::size_t lda,
                 const float* b, std::size_t ldb, float beta, float* c,
                 std::size_t ldc);

}  // namespace scalocate::nn::kernels
