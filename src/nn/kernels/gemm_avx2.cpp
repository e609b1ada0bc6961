// AVX2 + FMA instantiation of the blocked GEMM and the direct conv.
//
// This translation unit is compiled with -mavx2 -mfma (see CMakeLists) on
// x86-64 builds only; the tile table in gemm.cpp picks it when the CPU
// reports both features but not AVX-512F. Vectors are 8-float ymm
// registers: the 6x16 GEMM tile holds twelve accumulators with room for
// the A broadcast and B loads, and the 4x16 direct-conv tile eight.
#if defined(SCALOCATE_GEMM_X86_64)

#include <immintrin.h>

#include <cstddef>

#include "nn/kernels/tiles.hpp"

#define SCALOCATE_TILE_ISA avx2

namespace scalocate::nn::kernels::detail::avx2 {

using vf = __m256;
constexpr std::size_t kVL = 8;
inline vf load(const float* p) { return _mm256_loadu_ps(p); }
inline void store(float* p, vf v) { _mm256_storeu_ps(p, v); }
inline vf splat(float s) { return _mm256_set1_ps(s); }
inline vf fmadd(vf a, vf b, vf c) { return _mm256_fmadd_ps(a, b, c); }

}  // namespace scalocate::nn::kernels::detail::avx2

#include "nn/kernels/gemm_blocked.hpp"

namespace scalocate::nn::kernels::detail {

static_assert(kAvx2ConvBlock.lanes == avx2::kVL);

// Each entry below ends with vzeroupper. Optimized builds emit it on every
// return from wide-vector code anyway; at -O0 GCC emits none, and the
// dirty upper register state then slows the caller's SSE code (a scalar
// fmaf loop in a Debug build ran 19x slower after one conv call).

void sgemm_avx2(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
                std::size_t k, float alpha, const float* a, std::size_t lda,
                const float* b, std::size_t ldb, float beta, float* c,
                std::size_t ldc) {
  // One tile for all shapes: a 4-row tile avoids the zero-padded panel at
  // M = 16 but re-streams the packed B panel once more per 12 rows, which
  // loses more at the large K of the im2col GEMMs than the padding costs.
  avx2::sgemm_blocked<6, 16>(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb,
                             beta, c, ldc);
  _mm256_zeroupper();
}

void sgemm_conv_avx2(std::size_t cout, std::size_t batch, const float* w,
                     const float* bias, const float* x, std::size_t cin,
                     std::size_t n, std::size_t kernel, float* out,
                     const ConvEpilogue* epilogue) {
  avx2::conv_direct<kAvx2ConvBlock.rows, kAvx2ConvBlock.vectors>(
      cout, batch, w, bias, x, cin, n, kernel, out, epilogue);
  _mm256_zeroupper();
}

}  // namespace scalocate::nn::kernels::detail

#endif  // SCALOCATE_GEMM_X86_64
