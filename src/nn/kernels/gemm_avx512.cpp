// AVX-512F + FMA instantiation of the blocked GEMM and the direct conv.
//
// This translation unit is compiled with -mavx512f -mfma (see CMakeLists)
// on x86-64 builds only; the tile table in gemm.cpp prefers it when the
// CPU reports AVX-512F (with the OS saving ZMM state), AVX2 and FMA. The
// templates are the AVX2 TU's at twice the width: NR = 32 gives 16-float
// vectors, so the 6x32 GEMM tile holds twelve zmm accumulators and the
// 4x32 direct-conv tile eight. Each output element keeps the FMA chain of
// the AVX2 tile, so the two agree bitwise.
#if defined(SCALOCATE_GEMM_X86_64)

#define SCALOCATE_TILE_ISA avx512
#include "nn/kernels/gemm_blocked.hpp"

namespace scalocate::nn::kernels::detail {

void sgemm_avx512(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
                  std::size_t k, float alpha, const float* a, std::size_t lda,
                  const float* b, std::size_t ldb, float beta, float* c,
                  std::size_t ldc, GemmScratch& scratch) {
  avx512::sgemm_blocked<6, 32>(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb,
                               beta, c, ldc, scratch);
}

void sgemm_conv_avx512(std::size_t cout, std::size_t out_len, std::size_t batch,
                       const float* w, const float* bias, const float* x,
                       std::size_t cin, std::size_t n, std::size_t kernel,
                       std::size_t stride, std::size_t pad_left, float* out,
                       GemmScratch& scratch) {
  avx512::sgemm_conv_blocked<6, 32>(cout, out_len, batch, w, bias, x, cin, n,
                                    kernel, stride, pad_left, out, scratch);
}

}  // namespace scalocate::nn::kernels::detail

#endif  // SCALOCATE_GEMM_X86_64
