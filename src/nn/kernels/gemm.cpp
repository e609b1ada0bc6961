#include "nn/kernels/gemm.hpp"

#include <algorithm>
#include <vector>

#include "nn/kernels/parallel.hpp"
#include "nn/kernels/tiles.hpp"

// The portable tile's instantiations (see the notes in gemm_blocked.hpp):
// 4-float GNU vectors the compiler lowers to whatever the baseline ISA
// has, and a multiply then an add where the FMA tiles fuse them.
#define SCALOCATE_TILE_ISA portable

namespace scalocate::nn::kernels::detail::portable {

typedef float vf __attribute__((vector_size(4 * sizeof(float))));
constexpr std::size_t kVL = 4;
inline vf load(const float* p) {
  vf v;
  __builtin_memcpy(&v, p, sizeof(vf));
  return v;
}
inline void store(float* p, vf v) { __builtin_memcpy(p, &v, sizeof(vf)); }
inline vf splat(float s) { return vf{s, s, s, s}; }
inline vf fmadd(vf a, vf b, vf c) { return a * b + c; }

}  // namespace scalocate::nn::kernels::detail::portable

#include "nn/kernels/gemm_blocked.hpp"

namespace scalocate::nn::kernels {

namespace detail {

// Defined here — and only here — so std::vector<float> growth code is
// always baseline-ISA (see the declaration comment in gemm_blocked.hpp).
float* thread_pack_a(std::size_t count) {
  thread_local std::vector<float> buf;
  if (buf.size() < count) buf.resize(count);
  return buf.data();
}

float* thread_pack_b(std::size_t count) {
  thread_local std::vector<float> buf;
  if (buf.size() < count) buf.resize(count);
  return buf.data();
}

#if defined(SCALOCATE_GEMM_X86_64)
// Defined in gemm_avx512.cpp (-mavx512f -mfma) and gemm_avx2.cpp
// (-mavx2 -mfma).
void sgemm_avx512(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
                  std::size_t k, float alpha, const float* a, std::size_t lda,
                  const float* b, std::size_t ldb, float beta, float* c,
                  std::size_t ldc);
void sgemm_conv_avx512(std::size_t cout, std::size_t batch, const float* w,
                       const float* bias, const float* x, std::size_t cin,
                       std::size_t n, std::size_t kernel, float* out,
                       const ConvEpilogue* epilogue);
void sgemm_avx2(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
                std::size_t k, float alpha, const float* a, std::size_t lda,
                const float* b, std::size_t ldb, float beta, float* c,
                std::size_t ldc);
void sgemm_conv_avx2(std::size_t cout, std::size_t batch, const float* w,
                     const float* bias, const float* x, std::size_t cin,
                     std::size_t n, std::size_t kernel, float* out,
                     const ConvEpilogue* epilogue);
#endif

namespace {

#if defined(SCALOCATE_GEMM_X86_64)
// __builtin_cpu_supports("avx512f") is false unless the OS also saves the
// ZMM state (XCR0), so a true answer means the 512-bit code can run.
bool cpu_has_avx512() {
  return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx2") &&
         __builtin_cpu_supports("fma");
}

bool cpu_has_avx2_fma() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}
#endif

bool any_cpu() { return true; }

static_assert(kPortableConvBlock.lanes == portable::kVL);

constexpr Tile kTiles[] = {
#if defined(SCALOCATE_GEMM_X86_64)
    {"avx512", cpu_has_avx512, sgemm_avx512, sgemm_conv_avx512},
    {"avx2", cpu_has_avx2_fma, sgemm_avx2, sgemm_conv_avx2},
#endif
    {"portable", any_cpu, portable::sgemm_blocked<4, 8>,
     portable::conv_direct<kPortableConvBlock.rows, kPortableConvBlock.vectors>},
};

}  // namespace

std::span<const Tile> tiles() { return kTiles; }

const Tile& dispatched_tile() {
  static const Tile& tile =
      *std::find_if(std::begin(kTiles), std::end(kTiles),
                    [](const Tile& t) { return t.supported(); });
  return tile;
}

}  // namespace detail

namespace {

// Chunks for statically partitioning `extent` units of one macro-loop:
// bounded by the caller's thread budget and by a minimum chunk width (so
// a split never degenerates into per-strip task traffic). Deterministic —
// a pure function of (extent, budget) — and results do not depend on it.
std::size_t chunks_for(std::size_t extent, std::size_t min_per_chunk,
                       std::size_t budget) {
  const std::size_t by_extent = extent / min_per_chunk;
  return std::max<std::size_t>(
      1, std::min(budget, std::max<std::size_t>(by_extent, 1)));
}

// Threading floor on the partitioned dimension: 32 columns per chunk (two
// NR strips of the AVX2 tile, one of the AVX-512 tile), so the per-chunk
// pack/write-back epilogue stays amortized. Any width would be
// bit-correct; this is purely a perf floor, and no measurement backs
// another value.
constexpr std::size_t kMinColsPerChunk = 32;
constexpr std::size_t kMinRowsPerChunk = 32;

}  // namespace

void sgemm(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
           std::size_t k, float alpha, const float* a, std::size_t lda,
           const float* b, std::size_t ldb, float beta, float* c,
           std::size_t ldc) {
  if (m == 0 || n == 0) return;
  if (k == 0 || alpha == 0.0f) {
    // Product term vanishes: apply beta only.
    for (std::size_t i = 0; i < m; ++i) {
      float* crow = c + i * ldc;
      if (beta == 0.0f)
        std::fill(crow, crow + n, 0.0f);
      else if (beta != 1.0f)
        for (std::size_t j = 0; j < n; ++j) crow[j] *= beta;
    }
    return;
  }
  // Every chunk of a threaded call runs the same single-threaded tile.
  const detail::GemmEntry sgemm_st = detail::dispatched_tile().gemm;
  const std::size_t budget = intra_op_threads();
  if (budget > 1 && !in_parallel_region() &&
      2ull * m * n * k >= parallel_min_flops()) {
    // Column partition first (disjoint C column bands; every worker reads
    // all of A). Tall-and-narrow problems — the dX products of the conv
    // backward are [Cin*K, out_len] — split rows instead.
    std::size_t chunks = chunks_for(n, kMinColsPerChunk, budget);
    if (chunks > 1) {
      parallel_for(chunks, [&](std::size_t ci) {
        const auto [j0, len] = chunk_range(n, chunks, ci);
        const float* b_sub = trans_b ? b + j0 * ldb : b + j0;
        sgemm_st(trans_a, trans_b, m, len, k, alpha, a, lda, b_sub, ldb, beta,
                 c + j0, ldc);
      });
      return;
    }
    chunks = chunks_for(m, kMinRowsPerChunk, budget);
    if (chunks > 1) {
      parallel_for(chunks, [&](std::size_t ci) {
        const auto [i0, len] = chunk_range(m, chunks, ci);
        const float* a_sub = trans_a ? a + i0 : a + i0 * lda;
        sgemm_st(trans_a, trans_b, len, n, k, alpha, a_sub, lda, b, ldb, beta,
                 c + i0 * ldc, ldc);
      });
      return;
    }
  }
  sgemm_st(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
}

void sgemm_conv(std::size_t cout, std::size_t batch, const float* w,
                const float* bias, const float* x, std::size_t cin,
                std::size_t n, std::size_t kernel, float* out,
                const ConvEpilogue* epilogue) {
  if (cout == 0 || n == 0 || batch == 0) return;
  const detail::ConvEntry sgemm_conv_st = detail::dispatched_tile().conv;
  const std::size_t budget = intra_op_threads();
  // Batch items are fully independent outputs: the partition for
  // minibatch training. A single item always runs on the calling thread.
  if (budget > 1 && batch > 1 && !in_parallel_region() &&
      2ull * batch * cout * n * cin * kernel >= parallel_min_flops()) {
    const std::size_t chunks = std::min(budget, batch);
    parallel_for(chunks, [&](std::size_t ci) {
      const auto [b0, len] = chunk_range(batch, chunks, ci);
      sgemm_conv_st(cout, len, w, bias, x + b0 * cin * n, cin, n, kernel,
                    out + b0 * cout * n, epilogue);
    });
    return;
  }
  sgemm_conv_st(cout, batch, w, bias, x, cin, n, kernel, out, epilogue);
}

void sgemm_naive(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
                 std::size_t k, float alpha, const float* a, std::size_t lda,
                 const float* b, std::size_t ldb, float beta, float* c,
                 std::size_t ldc) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p)
        acc += static_cast<double>(detail::load_any(trans_a, a, lda, i, p)) *
               static_cast<double>(detail::load_any(trans_b, b, ldb, p, j));
      float& out = c[i * ldc + j];
      const float prior = beta == 0.0f ? 0.0f : beta * out;
      out = prior + alpha * static_cast<float>(acc);
    }
  }
}

}  // namespace scalocate::nn::kernels
