// Internal: the cache-blocked GEMM and the direct conv, templated on the
// register-tile shape.
//
// The templates are instantiated in three translation units, each with its
// own tile and compiler flags:
//   - gemm.cpp          -> GEMM <4, 8>,  conv 4x8   (portable baseline ISA)
//   - gemm_avx2.cpp     -> GEMM <6, 16>, conv 4x16  (-mavx2 -mfma)
//   - gemm_avx512.cpp   -> GEMM <6, 32>, conv 8x48  (-mavx512f -mfma)
// The tile table in tiles.hpp lists them widest first, and sgemm() runs the
// first one the CPU supports. Keeping the bodies templates (instead of
// ifdef'd copies) means one algorithm, three codegens.
//
// Per-TU vector primitives: before the include, the TU defines in
// detail::SCALOCATE_TILE_ISA the vector type `vf` of kVL floats (16 for
// AVX-512, 8 for AVX2, 4 for portable) and load/store (unaligned), splat
// and fmadd(a, b, c) = a * b + c. fmadd is the tiles' only multiply-add:
// one vfmadd (one rounding) in the FMA TUs, a multiply and an add in the
// portable TU. The library is built with -ffp-contract=off, so the
// compiler fuses nothing else, at any optimization level.
//
// Per-TU identity: an includer defines SCALOCATE_TILE_ISA to a namespace
// name of its own first, and everything below lives in
// detail::SCALOCATE_TILE_ISA. Instantiations are weak symbols, so without
// it an instantiation two TUs share (pack_block_a<6> is used at <6, 16>
// and at <6, 32>) would be one symbol, and the linker could keep the
// AVX-512 copy for the AVX2 path. For the same reason the bodies call no
// std:: function templates (std::min is a shared weak symbol in an
// unoptimized build). tools/check_tile_symbols.py checks the archive.
//
// Two kernels:
//   - sgemm_blocked: the row-major GEMM behind sgemm(), for Linear and the
//     training backward (conv dW and dX through im2col).
//   - conv_direct: the pack-free "same"-padded convolution behind
//     sgemm_conv(), for every conv forward. It reads the input in place and
//     can apply a conv block's BatchNorm and ReLU before its store
//     (ConvEpilogue).
#pragma once

#if !defined(SCALOCATE_TILE_ISA)
#error "define SCALOCATE_TILE_ISA (this TU's tile namespace) before the include"
#endif

#include <cstddef>

#include "nn/kernels/gemm.hpp"

namespace scalocate::nn::kernels::detail {

// Internal linkage on purpose: sgemm_naive in gemm.cpp reads through it
// too, outside any tile namespace, and a static copy per TU cannot leak
// AVX-encoded code into baseline callers.
static inline float load_any(bool trans, const float* m, std::size_t ld,
                             std::size_t row, std::size_t col) {
  return trans ? m[col * ld + row] : m[row * ld + col];
}

/// The calling thread's two pack buffers, grown to at least `count`
/// floats (see the thread-safety note in gemm.hpp): pack_a holds the GEMM's
/// packed A block and conv_direct's padded input, pack_b the GEMM's packed
/// B panel. Defined ONLY in gemm.cpp (baseline ISA): keeps the
/// std::vector<float> method instantiations behind them, which contain
/// vectorizable float loops, out of the AVX TUs for the same reason.
float* thread_pack_a(std::size_t count);
float* thread_pack_b(std::size_t count);

namespace SCALOCATE_TILE_ISA {

// Cache blocking: the packed A block (MC x KC) stays L2-resident and is
// re-streamed per B strip; the packed B panel (KC x NC) is sized to sit in
// L2 as well so the single pass the micro-kernel makes over it stays off
// DRAM (a measured optimum). KC also fixes where each element's k-chain
// restarts, so every tile sums in the same order.
constexpr std::size_t kMC = 132;  // multiple of every MR in use (4 and 6)
constexpr std::size_t kKC = 256;
constexpr std::size_t kNC = 512;

template <class T>
constexpr T lesser(T a, T b) {
  return b < a ? b : a;
}

/// Packs A[ic..ic+mc) x [pc..pc+kc) into MR-row panels, zero-padding the
/// ragged last panel so the micro-kernel never branches on bounds.
template <std::size_t MR>
void pack_block_a(bool trans, const float* a, std::size_t lda, std::size_t ic,
                  std::size_t pc, std::size_t mc, std::size_t kc, float* dst) {
  for (std::size_t i0 = 0; i0 < mc; i0 += MR) {
    const std::size_t mr = lesser(MR, mc - i0);
    for (std::size_t p = 0; p < kc; ++p) {
      for (std::size_t ir = 0; ir < mr; ++ir)
        dst[ir] = load_any(trans, a, lda, ic + i0 + ir, pc + p);
      for (std::size_t ir = mr; ir < MR; ++ir) dst[ir] = 0.0f;
      dst += MR;
    }
  }
}

/// Packs op(B)[pc..pc+kc) x [jc..jc+nc) into NR-column panels,
/// zero-padding the ragged last panel.
template <std::size_t NR>
void pack_block_b(bool trans, const float* b, std::size_t ldb, std::size_t pc,
                  std::size_t jc, std::size_t kc, std::size_t nc, float* dst) {
  for (std::size_t j0 = 0; j0 < nc; j0 += NR) {
    const std::size_t nr = lesser(NR, nc - j0);
    if (!trans && nr == NR) {
      // Contiguous fast path: rows of B are unit-stride in j.
      const float* src = b + pc * ldb + jc + j0;
      for (std::size_t p = 0; p < kc; ++p) {
        for (std::size_t jr = 0; jr < NR; ++jr) dst[jr] = src[jr];
        src += ldb;
        dst += NR;
      }
      continue;
    }
    for (std::size_t p = 0; p < kc; ++p) {
      for (std::size_t jr = 0; jr < nr; ++jr)
        dst[jr] = load_any(trans, b, ldb, pc + p, jc + j0 + jr);
      for (std::size_t jr = nr; jr < NR; ++jr) dst[jr] = 0.0f;
      dst += NR;
    }
  }
}

/// Writes one mr x nr tile of finished accumulators into row-major C:
/// the first k-panel applies beta (beta == 0 never reads C), later panels
/// add onto it.
template <std::size_t NR>
void store_tile(bool first_panel, float alpha, float beta, float* c,
                std::size_t ldc, std::size_t mr, std::size_t nr,
                const float* acc) {
  for (std::size_t ir = 0; ir < mr; ++ir) {
    float* crow = c + ir * ldc;
    const float* arow = acc + ir * NR;
    if (!first_panel) {
      for (std::size_t jr = 0; jr < nr; ++jr) crow[jr] += alpha * arow[jr];
    } else if (beta == 0.0f) {
      for (std::size_t jr = 0; jr < nr; ++jr) crow[jr] = alpha * arow[jr];
    } else {
      for (std::size_t jr = 0; jr < nr; ++jr)
        crow[jr] = beta * crow[jr] + alpha * arow[jr];
    }
  }
}

/// acc[MR][NR] = pa panel * pb panel over kc steps.
///
/// The accumulators are explicit vector registers (GCC's auto-vectorizer
/// spills a plain MR*NR scalar array): MR x NR/kVL vectors live across the
/// whole k loop, each step loads MR + NR floats and issues MR*NR/kVL
/// fmadds. Every GEMM tile is two vectors wide.
template <std::size_t MR, std::size_t NR>
inline void micro_kernel(std::size_t kc, const float* pa, const float* pb,
                         float* acc) {
  static_assert(NR % kVL == 0);
  constexpr std::size_t NV = NR / kVL;

  vf c[MR][NV] = {};
  for (std::size_t p = 0; p < kc; ++p) {
    const float* arow = pa + p * MR;
    const float* brow = pb + p * NR;
    vf b[NV];
    for (std::size_t v = 0; v < NV; ++v) b[v] = load(brow + v * kVL);
    for (std::size_t ir = 0; ir < MR; ++ir) {
      const vf av = splat(arow[ir]);
      for (std::size_t v = 0; v < NV; ++v)
        c[ir][v] = fmadd(b[v], av, c[ir][v]);
    }
  }
  for (std::size_t ir = 0; ir < MR; ++ir)
    for (std::size_t v = 0; v < NV; ++v)
      store(acc + ir * NR + v * kVL, c[ir][v]);
}

/// The blocked driver: pack B strip -> pack A block -> register-tiled
/// micro-kernel -> write-back into C. The contract of sgemm().
template <std::size_t MR, std::size_t NR>
void sgemm_blocked(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
                   std::size_t k, float alpha, const float* a, std::size_t lda,
                   const float* b, std::size_t ldb, float beta, float* c,
                   std::size_t ldc) {
  static_assert(kMC % MR == 0, "MC must hold whole A panels");
  for (std::size_t jc = 0; jc < n; jc += kNC) {
    const std::size_t nc = lesser(kNC, n - jc);
    const std::size_t nc_padded = (nc + NR - 1) / NR * NR;
    for (std::size_t pc = 0; pc < k; pc += kKC) {
      const std::size_t kc = lesser(kKC, k - pc);
      const bool first_panel = pc == 0;
      float* packed_b = thread_pack_b(kc * nc_padded);
      pack_block_b<NR>(trans_b, b, ldb, pc, jc, kc, nc, packed_b);

      for (std::size_t ic = 0; ic < m; ic += kMC) {
        const std::size_t mc = lesser(kMC, m - ic);
        const std::size_t mc_padded = (mc + MR - 1) / MR * MR;
        float* packed_a = thread_pack_a(mc_padded * kc);
        pack_block_a<MR>(trans_a, a, lda, ic, pc, mc, kc, packed_a);

        // BLIS loop order: the NR strip of packed B is the outer loop (one
        // strip lives in L1 and is reused by every A row panel); the
        // MC x KC packed A block stays L2-resident and is re-streamed per
        // strip. B is then read exactly once per k-panel.
        for (std::size_t j0 = 0; j0 < nc; j0 += NR) {
          const std::size_t nr = lesser(NR, nc - j0);
          const float* pb = packed_b + (j0 / NR) * kc * NR;
          for (std::size_t i0 = 0; i0 < mc; i0 += MR) {
            const std::size_t mr = lesser(MR, mc - i0);
            const float* pa = packed_a + (i0 / MR) * kc * MR;
            float acc[MR * NR];  // fully written by the micro-kernel
            micro_kernel<MR, NR>(kc, pa, pb, acc);
            store_tile<NR>(first_panel, alpha, beta,
                           c + (ic + i0) * ldc + jc + j0, ldc, mr, nr, acc);
          }
        }
      }
    }
  }
}

/// One MRC x NVC tile of conv_direct: output channels co0 + [0, mc) at the
/// nr output positions from x's first column. `x` points into the padded
/// staging copy (row stride np) and `c` at the tile's first output (row
/// stride ldc); wrow and seed hold each tile row's weights and first chain
/// value, with tail rows repeating the last valid one.
///
/// Out of line on purpose: inlined into conv_direct's strip loop, GCC
/// hoists the seeds and the epilogue's zero out of it and keeps them in
/// registers through the tap loop, which leaves the 16-register AVX2 tile
/// one short and spills an input vector to the stack. One call per tile
/// costs nothing beside its cin * kernel taps.
template <std::size_t MRC, std::size_t NVC>
[[gnu::noinline]] void conv_tile(const float* const* wrow, const float* seed,
                                 const float* x, std::size_t np,
                                 std::size_t cin, std::size_t kernel,
                                 const ConvEpilogue* epilogue, std::size_t co0,
                                 std::size_t mc, float* c, std::size_t ldc,
                                 std::size_t nr) {
  constexpr std::size_t NR = NVC * kVL;
  vf acc[MRC][NVC];
  for (std::size_t ir = 0; ir < MRC; ++ir)
    for (std::size_t v = 0; v < NVC; ++v) acc[ir][v] = splat(seed[ir]);
  for (std::size_t ci = 0; ci < cin; ++ci) {
    // Output position jr, tap t reads x[ci, jr + t].
    const float* xrow = x + ci * np;
    const std::size_t wci = ci * kernel;
    for (std::size_t tap = 0; tap < kernel; ++tap) {
      vf xv[NVC];
      for (std::size_t v = 0; v < NVC; ++v) xv[v] = load(xrow + tap + v * kVL);
      for (std::size_t ir = 0; ir < MRC; ++ir) {
        const vf wv = splat(wrow[ir][wci + tap]);
        for (std::size_t v = 0; v < NVC; ++v)
          acc[ir][v] = fmadd(xv[v], wv, acc[ir][v]);
      }
    }
  }
  for (std::size_t ir = 0; ir < MRC; ++ir) {
    if (ir >= mc) break;
    if (epilogue != nullptr) {
      // normalize_scale_shift's two steps, then relu's select.
      const std::size_t co = co0 + ir;
      const vf mean = splat(epilogue->mean[co]);
      const vf inv_std = splat(epilogue->inv_std[co]);
      const vf gamma = splat(epilogue->gamma[co]);
      const vf beta = splat(epilogue->beta[co]);
      const vf zero = splat(0.0f);
      for (std::size_t v = 0; v < NVC; ++v) {
        const vf h = (acc[ir][v] - mean) * inv_std;
        const vf y = gamma * h + beta;
        acc[ir][v] = epilogue->relu ? (y > zero ? y : zero) : y;
      }
    }
    float* crow = c + ir * ldc;
    if (nr == NR) {
      for (std::size_t v = 0; v < NVC; ++v) store(crow + v * kVL, acc[ir][v]);
    } else {
      float tail[NR];
      for (std::size_t v = 0; v < NVC; ++v) store(tail + v * kVL, acc[ir][v]);
      for (std::size_t jr = 0; jr < nr; ++jr) crow[jr] = tail[jr];
    }
  }
}

/// Direct register-tiled convolution: no packing at all. The
/// sliding-window structure means every "column matrix" strip is just a
/// shifted slice of an input row, so the micro-kernel reads x in place
/// (the per-item input is L1-sized for the paper model) while MRC output
/// channels x NVC vectors of output positions accumulate in vector
/// registers (conv_tile). This beats im2col+GEMM whenever Cout is small:
/// packing traffic cannot be amortized over few GEMM rows, and here there
/// is none. The contract of sgemm_conv(): stride 1, "same" padding, so
/// each output row has n positions.
///
/// Each output element is one chain: acc = 0 + bias[co], then
/// acc = fmadd(x_padded, w, acc) for every (ci, tap) in order. Items are
/// independent, so a batch-1 call gives every element the bits of the
/// batched call, and the chain does not depend on the tile shape, so the
/// FMA tiles of every shape agree bitwise.
///
/// A non-null `epilogue` is applied to each finished tile before its store
/// (see ConvEpilogue): the conv block's BatchNorm and ReLU cost no pass of
/// their own over the output.
///
/// The MRC x NVC accumulators stay in registers only if every access to
/// them has a compile-time row index: a row loop bounded by the runtime
/// tail count would make GCC keep the array on the stack and reload/store
/// it around the tap loop. So every row loop runs to MRC; the tail rows of
/// a ragged `cout % MRC` block recompute the last valid row (no memory
/// outside the weights is read) and their results are not stored.
template <std::size_t MRC, std::size_t NVC>
void conv_direct(std::size_t cout, std::size_t batch, const float* w,
                 const float* bias, const float* x, std::size_t cin,
                 std::size_t n, std::size_t kernel, float* out,
                 const ConvEpilogue* epilogue) {
  constexpr std::size_t NR = NVC * kVL;  // output positions per tile
  const std::size_t wrow_stride = cin * kernel;
  const std::size_t pad_left = conv_pad_left(kernel);

  // Zero padding is materialized into an L1-sized staging copy of the item
  // (plus NR floats of load slop), so every tap load in the hot loop is a
  // plain unaligned vector load with no border branches. Only the pad and
  // slop columns need zeros: each item's copy rewrites the rest. The
  // buffer is the thread's, so the pad columns are zeroed on every call.
  const std::size_t np = n + kernel - 1 + NR;
  float* xpad = thread_pack_a(cin * np);
  for (std::size_t ci = 0; ci < cin; ++ci) {
    float* row = xpad + ci * np;
    __builtin_memset(row, 0, pad_left * sizeof(float));
    __builtin_memset(row + pad_left + n, 0,
                     (np - pad_left - n) * sizeof(float));
  }

  for (std::size_t b = 0; b < batch; ++b) {
    const float* xi = x + b * cin * n;
    float* ob = out + b * cout * n;
    for (std::size_t ci = 0; ci < cin; ++ci)
      __builtin_memcpy(xpad + ci * np + pad_left, xi + ci * n,
                       n * sizeof(float));
    for (std::size_t co0 = 0; co0 < cout; co0 += MRC) {
      const std::size_t mc = lesser(MRC, cout - co0);
      const float* wrow[MRC];
      float seed[MRC];  // the chain's first value, 0 + bias
      for (std::size_t ir = 0; ir < MRC; ++ir) {
        const std::size_t co = co0 + lesser(ir, mc - 1);
        wrow[ir] = w + co * wrow_stride;
        seed[ir] = 0.0f + (bias != nullptr ? bias[co] : 0.0f);
      }
      for (std::size_t j0 = 0; j0 < n; j0 += NR)
        conv_tile<MRC, NVC>(wrow, seed, xpad + j0, np, cin, kernel, epilogue,
                            co0, mc, ob + co0 * n + j0, n,
                            lesser(NR, n - j0));
    }
  }
}

}  // namespace SCALOCATE_TILE_ISA
}  // namespace scalocate::nn::kernels::detail
