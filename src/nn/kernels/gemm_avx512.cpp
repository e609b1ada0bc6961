// AVX-512F + FMA instantiation of the blocked GEMM and the direct conv.
//
// This translation unit is compiled with -mavx512f -mfma (see CMakeLists)
// on x86-64 builds only; the tile table in gemm.cpp prefers it when the
// CPU reports AVX-512F (with the OS saving ZMM state), AVX2 and FMA.
// Vectors are 16-float zmm registers: the 6x32 GEMM tile holds twelve
// accumulators, and the 8x48 direct-conv tile (8 output channels x 3
// vectors) 24, with 3 input vectors and a weight broadcast beside them in
// the 32 registers. The paper windows split into whole 48-wide strips
// (384 = 8 x 48, 288 = 6 x 48), and its convs have 16 or 32 output
// channels. Each output element keeps the FMA chain of the AVX2 tile, so
// the two agree bitwise.
#if defined(SCALOCATE_GEMM_X86_64)

#include <immintrin.h>

#include <cstddef>

#include "nn/kernels/tiles.hpp"

#define SCALOCATE_TILE_ISA avx512

namespace scalocate::nn::kernels::detail::avx512 {

using vf = __m512;
constexpr std::size_t kVL = 16;
inline vf load(const float* p) { return _mm512_loadu_ps(p); }
inline void store(float* p, vf v) { _mm512_storeu_ps(p, v); }
inline vf splat(float s) { return _mm512_set1_ps(s); }
inline vf fmadd(vf a, vf b, vf c) { return _mm512_fmadd_ps(a, b, c); }

}  // namespace scalocate::nn::kernels::detail::avx512

#include "nn/kernels/gemm_blocked.hpp"

namespace scalocate::nn::kernels::detail {

static_assert(kAvx512ConvBlock.lanes == avx512::kVL);

// Each entry below ends with vzeroupper. Optimized builds emit it on every
// return from wide-vector code anyway; at -O0 GCC emits none, and the
// dirty upper register state then slows the caller's SSE code (a scalar
// fmaf loop in a Debug build ran 19x slower after one conv call).

void sgemm_avx512(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
                  std::size_t k, float alpha, const float* a, std::size_t lda,
                  const float* b, std::size_t ldb, float beta, float* c,
                  std::size_t ldc) {
  avx512::sgemm_blocked<6, 32>(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb,
                               beta, c, ldc);
  _mm256_zeroupper();
}

void sgemm_conv_avx512(std::size_t cout, std::size_t batch, const float* w,
                       const float* bias, const float* x, std::size_t cin,
                       std::size_t n, std::size_t kernel, float* out,
                       const ConvEpilogue* epilogue) {
  avx512::conv_direct<kAvx512ConvBlock.rows, kAvx512ConvBlock.vectors>(
      cout, batch, w, bias, x, cin, n, kernel, out, epilogue);
  _mm256_zeroupper();
}

}  // namespace scalocate::nn::kernels::detail

#endif  // SCALOCATE_GEMM_X86_64
