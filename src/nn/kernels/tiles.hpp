// Internal: the table of compiled kernel tiles, and the one this CPU runs.
//
// Each entry is one instantiation of the gemm_blocked.hpp templates, built
// in its own translation unit with its own ISA flags (see the per-TU
// identity note there). sgemm() and sgemm_conv() dispatch to
// dispatched_tile(); the kernel tests call every supported entry directly,
// so an AVX-512 host still checks the AVX2 and portable tiles.
//
// The FMA tiles (avx512, avx2) compute every output element with the same
// chain of fused multiply-adds in the same order, so they agree bitwise.
// The portable tile is built for the baseline ISA without FMA, so its
// results differ from theirs in the last bits.
#pragma once

#include <cstddef>
#include <span>

#include "nn/kernels/gemm.hpp"

namespace scalocate::nn::kernels::detail {

/// A tile's single-threaded kernels, with the contracts of sgemm() and
/// sgemm_conv().
using GemmEntry = decltype(&sgemm);
using ConvEntry = decltype(&sgemm_conv);

/// The direct conv's register block: `rows` output channels by `vectors`
/// vectors of `lanes` floats (the tile TU's vector width) of output
/// positions.
struct ConvBlock {
  std::size_t rows, vectors, lanes;
};

// One per tile TU; the TUs instantiate conv_direct with these. Internal
// linkage (constexpr), so no TU shares a symbol for them.
constexpr ConvBlock kAvx512ConvBlock{8, 3, 16};
constexpr ConvBlock kAvx2ConvBlock{4, 2, 8};
constexpr ConvBlock kPortableConvBlock{4, 2, 4};

struct Tile {
  const char* name;
  bool (*supported)();  ///< may the running CPU execute this tile's code?
  GemmEntry gemm;
  ConvEntry conv;
};

/// Every tile this build compiled, widest first: avx512, avx2, portable on
/// x86-64, portable alone elsewhere. The last entry runs on any CPU.
std::span<const Tile> tiles();

/// The first entry of tiles() the CPU supports, resolved once.
const Tile& dispatched_tile();

}  // namespace scalocate::nn::kernels::detail
