// AVX2 + FMA instantiation of the blocked GEMM and the direct conv.
//
// This translation unit is compiled with -mavx2 -mfma (see CMakeLists) on
// x86-64 builds only; the tile table in gemm.cpp picks it when the CPU
// reports both features but not AVX-512F. The 6x16 tile holds twelve
// 8-float accumulator vectors in ymm registers with room for the A
// broadcast and B loads.
#if defined(SCALOCATE_GEMM_X86_64)

#define SCALOCATE_TILE_ISA avx2
#include "nn/kernels/gemm_blocked.hpp"

namespace scalocate::nn::kernels::detail {

void sgemm_avx2(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
                std::size_t k, float alpha, const float* a, std::size_t lda,
                const float* b, std::size_t ldb, float beta, float* c,
                std::size_t ldc, GemmScratch& scratch) {
  // One tile for all shapes: a 4-row tile avoids the zero-padded panel at
  // M = 16 but re-streams the packed B panel once more per 12 rows, which
  // loses more at the large K of the im2col GEMMs than the padding costs.
  avx2::sgemm_blocked<6, 16>(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb,
                             beta, c, ldc, scratch);
}

void sgemm_conv_avx2(std::size_t cout, std::size_t out_len, std::size_t batch,
                     const float* w, const float* bias, const float* x,
                     std::size_t cin, std::size_t n, std::size_t kernel,
                     std::size_t stride, std::size_t pad_left, float* out,
                     GemmScratch& scratch) {
  avx2::sgemm_conv_blocked<6, 16>(cout, out_len, batch, w, bias, x, cin, n,
                                  kernel, stride, pad_left, out, scratch);
}

}  // namespace scalocate::nn::kernels::detail

#endif  // SCALOCATE_GEMM_X86_64
