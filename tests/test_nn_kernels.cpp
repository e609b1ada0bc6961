// Kernel-backend parity suite: every compiled kernel tile the host can run
// (taken from the tile table, not only the dispatched one) vs the naive
// reference kernels, the tile table itself, the direct conv's arithmetic
// (a known-answer chain on the FMA tiles, parity for the portable tile),
// im2col/col2im round trips, the fused pointwise ops, Tensor reshape/view
// semantics, and gradient checks routed through the new backend
// (Conv1d/Linear).
//
// This TU is built for the baseline ISA and calls the wide tiles only
// through the table's function pointers, never by instantiating
// gemm_blocked.hpp itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <limits>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "nn/conv1d.hpp"
#include "nn/gradcheck.hpp"
#include "nn/init.hpp"
#include "nn/kernels/gemm.hpp"
#include "nn/kernels/pack.hpp"
#include "nn/kernels/parallel.hpp"
#include "nn/kernels/pointwise.hpp"
#include "nn/kernels/reference.hpp"
#include "nn/kernels/tiles.hpp"
#include "nn/linear.hpp"
#include "nn/tensor.hpp"

namespace scalocate::nn {
namespace {

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  std::vector<float> v(n);
  Rng rng(seed);
  for (float& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

Tensor random_tensor(std::vector<std::size_t> shape, std::uint64_t seed) {
  Tensor t(std::move(shape));
  Rng rng(seed);
  for (float& v : t.flat()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return t;
}

void expect_close(std::span<const float> a, std::span<const float> b,
                  float tol, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float denom = std::max({1.0f, std::fabs(a[i]), std::fabs(b[i])});
    ASSERT_NEAR(a[i], b[i], tol * denom) << what << " at index " << i;
  }
}

void expect_bit_equal(std::span<const float> a, std::span<const float> b,
                      const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint32_t>(a[i]),
              std::bit_cast<std::uint32_t>(b[i]))
        << what << " at index " << i << ": " << a[i] << " vs " << b[i];
}

// ---------------------------------------------------------------------------
// Tile table: every compiled tile, widest first, dispatch = first supported
// ---------------------------------------------------------------------------

using kernels::detail::Tile;

/// The table's entries the host can run. Dispatch is cpuid-only, so on an
/// AVX-512 host the AVX2 and portable tiles run nowhere but here.
std::vector<Tile> supported_tiles() {
  std::vector<Tile> out;
  for (const Tile& t : kernels::detail::tiles())
    if (t.supported()) out.push_back(t);
  return out;
}

/// The FMA tiles compute one fused multiply-add chain per output element
/// and agree bitwise; the portable tile (baseline ISA, no FMA) does not.
bool is_fma_tile(const Tile& t) {
  return std::string_view(t.name) != "portable";
}

bool is_dispatched(const Tile& t) {
  return std::string_view(t.name) == kernels::detail::dispatched_tile().name;
}

TEST(TileTable, ListsEveryCompiledTileAndDispatchesTheFirstSupported) {
  const auto table = kernels::detail::tiles();
  ASSERT_FALSE(table.empty());
  std::vector<std::string> names;
  for (const Tile& t : table) names.emplace_back(t.name);
  EXPECT_EQ(std::set<std::string>(names.begin(), names.end()).size(),
            names.size())
      << "tile names must be distinct";
  EXPECT_EQ(names.back(), "portable");
  EXPECT_TRUE(table.back().supported()) << "the portable tile runs anywhere";
#if defined(__x86_64__)
  EXPECT_EQ(names, (std::vector<std::string>{"avx512", "avx2", "portable"}));
#else
  EXPECT_EQ(names, std::vector<std::string>{"portable"});
#endif
  const Tile& dispatched = kernels::detail::dispatched_tile();
  const auto first = std::find_if(table.begin(), table.end(),
                                  [](const Tile& t) { return t.supported(); });
  ASSERT_NE(first, table.end());
  EXPECT_EQ(&dispatched, &*first);
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx512f")) {
    EXPECT_STREQ(dispatched.name, "avx512");
  }
#endif
  RecordProperty("kernel_tile", dispatched.name);
  std::cout << "kernel tile: " << dispatched.name << "\n";
}

// ---------------------------------------------------------------------------
// GEMM: every tile vs the naive reference; FMA tiles bitwise equal
// ---------------------------------------------------------------------------

struct GemmCase {
  std::size_t m, n, k;
};

class GemmParity : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmParity, AllTransposesAlphaBeta) {
  const auto p = GetParam();
  const std::vector<Tile> tiles = supported_tiles();
  std::uint64_t seed = 1000;
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      // Row-major storage of op(A) (m x k) and op(B) (k x n).
      const auto a = random_vec(p.m * p.k, seed++);
      const auto b = random_vec(p.k * p.n, seed++);
      const std::size_t lda = ta ? p.m : p.k;
      const std::size_t ldb = tb ? p.k : p.n;
      for (float alpha : {1.0f, -0.5f}) {
        for (float beta : {0.0f, 1.0f, 0.25f}) {
          const auto c0 = random_vec(p.m * p.n, seed);
          auto c_ref = c0;  // identical prior contents for beta != 0
          kernels::sgemm_naive(ta, tb, p.m, p.n, p.k, alpha, a.data(), lda,
                               b.data(), ldb, beta, c_ref.data(), p.n);
          std::vector<float> c_fma, c_dispatched;
          for (const Tile& tile : tiles) {
            SCOPED_TRACE(tile.name);
            auto c_tile = c0;
            tile.gemm(ta, tb, p.m, p.n, p.k, alpha, a.data(), lda, b.data(),
                      ldb, beta, c_tile.data(), p.n);
            expect_close(c_tile, c_ref, 1e-5f, "gemm tile vs naive");
            if (is_fma_tile(tile)) {
              if (c_fma.empty())
                c_fma = c_tile;
              else
                expect_bit_equal(c_tile, c_fma, "gemm, FMA tiles");
            }
            if (is_dispatched(tile)) c_dispatched = c_tile;
          }
          // The public entry (threaded or not) runs the dispatched tile.
          auto c_pub = c0;
          kernels::sgemm(ta, tb, p.m, p.n, p.k, alpha, a.data(), lda, b.data(),
                         ldb, beta, c_pub.data(), p.n);
          expect_bit_equal(c_pub, c_dispatched, "sgemm vs dispatched tile");
        }
      }
      ++seed;
    }
  }
}

// Cache blocks: kMC = 132 rows, kKC = 256 depth, kNC = 512 columns.
INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmParity,
    ::testing::Values(GemmCase{1, 1, 1}, GemmCase{3, 5, 7}, GemmCase{4, 8, 16},
                      GemmCase{5, 9, 300},    // k spans two KC panels
                      GemmCase{33, 17, 129},  // ragged in every dimension
                      GemmCase{64, 192, 257},
                      GemmCase{130, 40, 300},  // two KC panels, one MC block
                      GemmCase{137, 521, 300}));  // crosses MC, NC and KC

TEST(Gemm, KZeroAppliesBetaOnly) {
  std::vector<float> c = {1.f, 2.f, 3.f, 4.f};
  kernels::sgemm(false, false, 2, 2, 0, 1.0f, nullptr, 1, nullptr, 1, 0.5f,
                 c.data(), 2);
  EXPECT_FLOAT_EQ(c[0], 0.5f);
  EXPECT_FLOAT_EQ(c[3], 2.0f);
  kernels::sgemm(false, false, 2, 2, 0, 1.0f, nullptr, 1, nullptr, 1, 0.0f,
                 c.data(), 2);
  for (float v : c) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(Gemm, BetaZeroIgnoresGarbageC) {
  const auto a = random_vec(6, 1);
  const auto b = random_vec(6, 2);
  std::vector<float> c_ref(4, 0.0f);
  std::vector<float> c(4, std::numeric_limits<float>::quiet_NaN());
  kernels::sgemm_naive(false, false, 2, 2, 3, 1.0f, a.data(), 3, b.data(), 2,
                       0.0f, c_ref.data(), 2);
  kernels::sgemm(false, false, 2, 2, 3, 1.0f, a.data(), 3, b.data(), 2, 0.0f,
                 c.data(), 2);
  expect_close(c, c_ref, 1e-6f, "beta=0");
}

// ---------------------------------------------------------------------------
// im2col / col2im
// ---------------------------------------------------------------------------

TEST(Im2Col, MatchesDirectIndexing) {
  // Even k: "same" padding puts (k-1)/2 = 1 zero on the left, 2 on the
  // right.
  const std::size_t cin = 3, n = 11, k = 4, pad_left = 1;
  const auto x = random_vec(cin * n, 7);
  std::vector<float> col(cin * k * n, -99.0f);
  kernels::im2col(x.data(), cin, n, k, col.data());
  for (std::size_t ci = 0; ci < cin; ++ci) {
    for (std::size_t kk = 0; kk < k; ++kk) {
      for (std::size_t j = 0; j < n; ++j) {
        const std::ptrdiff_t src = static_cast<std::ptrdiff_t>(j + kk) -
                                   static_cast<std::ptrdiff_t>(pad_left);
        const float expected =
            (src >= 0 && src < static_cast<std::ptrdiff_t>(n))
                ? x[ci * n + static_cast<std::size_t>(src)]
                : 0.0f;
        ASSERT_FLOAT_EQ(col[(ci * k + kk) * n + j], expected)
            << "ci=" << ci << " k=" << kk << " j=" << j;
      }
    }
  }
}

TEST(Col2Im, IsAdjointOfIm2Col) {
  // <im2col(x), c> == <x, col2im(c)> for random x, c — the defining
  // property of the transpose, which is exactly what backward needs.
  const std::size_t cin = 2, n = 9, k = 3;
  const auto x = random_vec(cin * n, 11);
  const auto c = random_vec(cin * k * n, 13);
  std::vector<float> col(cin * k * n);
  kernels::im2col(x.data(), cin, n, k, col.data());
  std::vector<float> xt(cin * n, 0.0f);
  kernels::col2im(c.data(), cin, n, k, xt.data());
  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < col.size(); ++i)
    lhs += static_cast<double>(col[i] * c[i]);
  for (std::size_t i = 0; i < x.size(); ++i)
    rhs += static_cast<double>(x[i] * xt[i]);
  EXPECT_NEAR(lhs, rhs, 1e-4);
}

// ---------------------------------------------------------------------------
// Conv1d / Linear layer parity against the naive reference kernels
// ---------------------------------------------------------------------------

struct ConvShape {
  std::size_t batch, cin, cout, k, n;
};

class ConvParity : public ::testing::TestWithParam<ConvShape> {};

TEST_P(ConvParity, ForwardAndBackwardMatchReference) {
  const auto p = GetParam();
  Conv1d conv(p.cin, p.cout, p.k);
  Rng rng(17);
  he_normal_init(conv.weight().value, rng);
  for (float& v : conv.bias().value.flat())
    v = static_cast<float>(rng.uniform(-0.5, 0.5));
  const auto x = random_tensor({p.batch, p.cin, p.n}, 19);

  // Forward parity.
  conv.set_training(true);
  Workspace ws;
  const Tensor y = conv.forward(x, ws);
  std::vector<float> y_ref(p.batch * p.cout * p.n);
  kernels::conv1d_forward_naive(x.data(), p.batch, p.cin, p.n,
                                conv.weight().value.data(),
                                conv.bias().value.data(), p.cout, p.k,
                                y_ref.data());
  expect_close(y.flat(), y_ref, 1e-4f, "conv forward");

  // Backward parity (input, weight, and bias gradients).
  const auto gout = random_tensor({p.batch, p.cout, p.n}, 23);
  conv.weight().zero_grad();
  conv.bias().zero_grad();
  const Tensor gx = conv.backward(gout, ws);
  std::vector<float> gx_ref(x.numel(), 0.0f);
  std::vector<float> gw_ref(conv.weight().value.numel(), 0.0f);
  std::vector<float> gb_ref(p.cout, 0.0f);
  kernels::conv1d_backward_naive(x.data(), p.batch, p.cin, p.n,
                                 conv.weight().value.data(), p.cout, p.k,
                                 gout.data(), gx_ref.data(), gw_ref.data(),
                                 gb_ref.data());
  expect_close(gx.flat(), gx_ref, 1e-4f, "conv grad_input");
  expect_close(conv.weight().grad.flat(), gw_ref, 1e-4f, "conv grad_weight");
  expect_close(conv.bias().grad.flat(), gb_ref, 1e-4f, "conv grad_bias");
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvParity,
    ::testing::Values(ConvShape{2, 1, 4, 3, 16},     // tiny
                      ConvShape{1, 1, 16, 16, 192},  // paper entry conv
                      ConvShape{2, 16, 32, 16, 192},  // paper widening
                      ConvShape{1, 16, 32, 1, 50},   // 1x1 projection
                      ConvShape{3, 4, 4, 7, 21}));   // odd k: pad 3 + 3

// ---------------------------------------------------------------------------
// Direct conv: exact arithmetic of every tile
// ---------------------------------------------------------------------------

struct DirectConvCase {
  std::size_t batch, cin, cout, k, out_len;
  std::size_t pad_left() const { return (k - 1) / 2; }  // "same" padding
};

/// cout 5 and 33 (ragged for every tile's row block) and the paper's 16
/// and 32 (whole blocks); out_len 37 and 193 (not a multiple of any tile
/// width) and the paper windows 288 and 384 (whole 48-wide strips, and
/// whole 16- and 8-wide ones); cin in {1, 16, 32}, k in {1, 16, 64} (64 is
/// the paper kernel), batch 1 and 3. The conv keeps the length, so
/// n == out_len.
std::vector<DirectConvCase> ragged_direct_cases() {
  std::vector<DirectConvCase> cases;
  for (std::size_t batch : {1u, 3u})
    for (std::size_t cin : {1u, 16u, 32u})
      for (std::size_t cout : {5u, 16u, 32u, 33u})
        for (std::size_t k : {1u, 16u, 64u})
          for (std::size_t out_len : {37u, 193u, 288u, 384u})
            cases.push_back({batch, cin, cout, k, out_len});
  return cases;
}

struct DirectConvData {
  std::vector<float> x, w, bias;
  explicit DirectConvData(const DirectConvCase& c)
      : x(random_vec(c.batch * c.cin * c.out_len, 601)),
        w(random_vec(c.cout * c.cin * c.k, 603)),
        bias(random_vec(c.cout, 605)) {}
};

std::string describe(const DirectConvCase& c) {
  return "batch " + std::to_string(c.batch) + ", cin " +
         std::to_string(c.cin) + ", cout " + std::to_string(c.cout) +
         ", k " + std::to_string(c.k) + ", out_len " +
         std::to_string(c.out_len);
}

#if defined(__x86_64__)
/// The chain the FMA direct convs compute for every output element:
/// acc = 0 + bias[co], then one fused multiply-add per (ci, tap) in that
/// order, reading the zero-padded input.
std::vector<float> conv_fma_chain(const DirectConvCase& c,
                                  const DirectConvData& d) {
  const std::size_t n = c.out_len;
  std::vector<float> out(c.batch * c.cout * c.out_len);
  for (std::size_t b = 0; b < c.batch; ++b)
    for (std::size_t co = 0; co < c.cout; ++co)
      for (std::size_t j = 0; j < c.out_len; ++j) {
        float acc = 0.0f + d.bias[co];
        for (std::size_t ci = 0; ci < c.cin; ++ci)
          for (std::size_t tap = 0; tap < c.k; ++tap) {
            const std::ptrdiff_t at = static_cast<std::ptrdiff_t>(j + tap) -
                                      static_cast<std::ptrdiff_t>(c.pad_left());
            const float xv =
                at >= 0 && at < static_cast<std::ptrdiff_t>(n)
                    ? d.x[(b * c.cin + ci) * n + static_cast<std::size_t>(at)]
                    : 0.0f;
            acc = std::fma(xv, d.w[(co * c.cin + ci) * c.k + tap], acc);
          }
        out[(b * c.cout + co) * c.out_len + j] = acc;
      }
  return out;
}
#endif

TEST(DirectConv, AvxTileMatchesScalarFmaChainBitwise) {
  // ConvParity's 1e-4 tolerance cannot see a reordered or re-associated
  // accumulation, but the benchmark's detection digests can.
#if defined(__x86_64__)
  std::vector<Tile> fma_tiles;
  for (const Tile& t : kernels::detail::tiles()) {
    if (!is_fma_tile(t)) continue;
    if (t.supported())
      fma_tiles.push_back(t);
    else
      std::cout << "tile " << t.name
                << " skipped: the host CPU does not support it\n";
  }
  if (fma_tiles.empty())
    GTEST_SKIP() << "host lacks AVX2+FMA: only the portable tile runs";
  // Any FMA tile is supported, so dispatch picks one of them.
  ASSERT_TRUE(is_fma_tile(kernels::detail::dispatched_tile()));
  kernels::IntraOpGuard serial(1);
  for (const DirectConvCase& c : ragged_direct_cases()) {
    SCOPED_TRACE(describe(c));
    const DirectConvData d(c);
    const std::vector<float> chain = conv_fma_chain(c, d);
    for (const Tile& tile : fma_tiles) {
      SCOPED_TRACE(tile.name);
      std::vector<float> out(c.batch * c.cout * c.out_len,
                             std::numeric_limits<float>::quiet_NaN());
      tile.conv(c.cout, c.batch, d.w.data(), d.bias.data(), d.x.data(), c.cin,
                c.out_len, c.k, out.data(), nullptr);
      expect_bit_equal(out, chain, "FMA direct conv vs scalar chain");
    }
    // The public entry runs the dispatched tile, so it computes the chain
    // too.
    std::vector<float> pub(c.batch * c.cout * c.out_len,
                           std::numeric_limits<float>::quiet_NaN());
    kernels::sgemm_conv(c.cout, c.batch, d.w.data(), d.bias.data(),
                        d.x.data(), c.cin, c.out_len, c.k, pub.data());
    expect_bit_equal(pub, chain, "sgemm_conv vs scalar chain");
  }
#else
  GTEST_SKIP() << "the FMA tiles exist only in x86-64 builds";
#endif
}

TEST(DirectConv, PortableTileMatchesReferenceAndItsBatchOneCalls) {
  // Every supported tile, the portable one included (on an FMA host it
  // runs nowhere else): within tolerance of the naive conv, and each
  // batch-1 call bitwise equal to its row of the batched call.
  const std::vector<Tile> tiles = supported_tiles();
  ASSERT_EQ(std::string_view(tiles.back().name), "portable");
  for (const DirectConvCase& c : ragged_direct_cases()) {
    SCOPED_TRACE(describe(c));
    const DirectConvData d(c);
    const std::size_t n = c.out_len;
    const std::size_t out_item = c.cout * c.out_len;
    std::vector<float> ref(c.batch * out_item);
    kernels::conv1d_forward_naive(d.x.data(), c.batch, c.cin, n, d.w.data(),
                                  d.bias.data(), c.cout, c.k, ref.data());
    for (const Tile& tile : tiles) {
      SCOPED_TRACE(tile.name);
      std::vector<float> out(c.batch * out_item,
                             std::numeric_limits<float>::quiet_NaN());
      tile.conv(c.cout, c.batch, d.w.data(), d.bias.data(), d.x.data(), c.cin,
                n, c.k, out.data(), nullptr);
      expect_close(out, ref, 1e-4f, "direct conv vs naive");

      for (std::size_t b = 0; b < c.batch; ++b) {
        std::vector<float> one(out_item,
                               std::numeric_limits<float>::quiet_NaN());
        tile.conv(c.cout, 1, d.w.data(), d.bias.data(),
                  d.x.data() + b * c.cin * n, c.cin, n, c.k, one.data(),
                  nullptr);
        expect_bit_equal(
            one,
            std::span<const float>(out).subspan(b * out_item, out_item),
            "direct conv, batch-1 call vs batched row");
      }
    }
  }
}

/// Epilogue constants for one conv output `plain` [batch, cout, out_len]
/// that reach the edges of the epilogue's arithmetic: gamma of both signs,
/// beta of +0 and -0 on some channels, and a mean that makes the
/// normalized value h = (a - mean) * inv_std exactly +0 (mean == a) or -0
/// (a - mean is one ulp below zero and inv_std, a denormal, scales it
/// under the smallest float) at a few positions of item 0.
struct EpilogueConstants {
  std::vector<float> mean, inv_std, gamma, beta;

  EpilogueConstants(const DirectConvCase& c, const std::vector<float>& plain)
      : mean(random_vec(c.cout, 607)),
        inv_std(random_vec(c.cout, 609)),
        gamma(random_vec(c.cout, 611)),
        beta(random_vec(c.cout, 613)) {
    for (std::size_t co = 0; co < c.cout; ++co) {
      inv_std[co] = 0.5f + std::fabs(inv_std[co]);
      const float a = plain[co * c.out_len + (co * 7) % c.out_len];
      switch (co % 4) {
        case 0:  // h = +0 at one position; gamma < 0 makes gamma * h = -0
          mean[co] = a;
          gamma[co] = -std::fabs(gamma[co]);
          beta[co] = 0.0f;
          break;
        case 1:  // h = -0 there; beta = -0 keeps y = -0 for relu to clear
          mean[co] = std::nextafter(a, std::numeric_limits<float>::max());
          inv_std[co] = 1e-41f;
          gamma[co] = std::fabs(gamma[co]);
          beta[co] = -0.0f;
          break;
        case 2:  // zero beta, negative gamma, ordinary values
          gamma[co] = -std::fabs(gamma[co]);
          beta[co] = 0.0f;
          break;
        default:
          break;
      }
    }
  }

  kernels::ConvEpilogue epilogue(bool relu) const {
    return {mean.data(), inv_std.data(), gamma.data(), beta.data(), relu};
  }

  /// The layer-by-layer reference: normalize_scale_shift, then relu, on
  /// every row of `plain`.
  std::vector<float> apply(const DirectConvCase& c,
                           const std::vector<float>& plain, bool relu) const {
    std::vector<float> out = plain;
    for (std::size_t b = 0; b < c.batch; ++b)
      for (std::size_t co = 0; co < c.cout; ++co) {
        float* row = out.data() + (b * c.cout + co) * c.out_len;
        kernels::normalize_scale_shift(c.out_len, row, mean[co], inv_std[co],
                                       gamma[co], beta[co], row);
        if (relu) kernels::relu(c.out_len, row, row);
      }
    return out;
  }
};

TEST(DirectConv, EpilogueMatchesConvThenNormalizeAndRelu) {
  // Bitwise: the fused BatchNorm/ReLU must round exactly as the separate
  // passes do, or the fused eval forward would move the scores.
  std::vector<Tile> tiles;
  for (const Tile& t : kernels::detail::tiles()) {
    if (t.supported())
      tiles.push_back(t);
    else
      std::cout << "tile " << t.name
                << " skipped: the host CPU does not support it\n";
  }
  std::size_t signed_zeros = 0;  // -0 values the reference produced
  for (const DirectConvCase& c : ragged_direct_cases()) {
    SCOPED_TRACE(describe(c));
    const DirectConvData d(c);
    const std::size_t total = c.batch * c.cout * c.out_len;
    for (const Tile& tile : tiles) {
      SCOPED_TRACE(tile.name);
      std::vector<float> plain(total, std::numeric_limits<float>::quiet_NaN());
      tile.conv(c.cout, c.batch, d.w.data(), d.bias.data(), d.x.data(), c.cin,
                c.out_len, c.k, plain.data(), nullptr);
      const EpilogueConstants e(c, plain);
      for (bool relu : {false, true}) {
        SCOPED_TRACE(relu ? "relu" : "no relu");
        const std::vector<float> expected = e.apply(c, plain, relu);
        for (float v : expected) signed_zeros += v == 0.0f && std::signbit(v);
        const kernels::ConvEpilogue epi = e.epilogue(relu);
        std::vector<float> fused(total,
                                 std::numeric_limits<float>::quiet_NaN());
        tile.conv(c.cout, c.batch, d.w.data(), d.bias.data(), d.x.data(),
                  c.cin, c.out_len, c.k, fused.data(), &epi);
        expect_bit_equal(fused, expected, "conv + epilogue vs separate passes");
        if (is_dispatched(tile)) {
          std::vector<float> pub(total,
                                 std::numeric_limits<float>::quiet_NaN());
          kernels::sgemm_conv(c.cout, c.batch, d.w.data(), d.bias.data(),
                              d.x.data(), c.cin, c.out_len, c.k, pub.data(),
                              &epi);
          expect_bit_equal(pub, expected, "sgemm_conv + epilogue");
        }
      }
    }
  }
  EXPECT_GT(signed_zeros, 0u) << "no case reached y = -0 before the ReLU";
}

TEST(LinearParity, ForwardAndBackwardMatchReference) {
  Linear lin(37, 11);
  Rng rng(29);
  he_normal_init(lin.weight().value, rng);
  for (float& v : lin.bias().value.flat())
    v = static_cast<float>(rng.uniform(-0.5, 0.5));
  const auto x = random_tensor({5, 37}, 31);

  Workspace ws;
  lin.set_training(true);
  const Tensor y = lin.forward(x, ws);
  std::vector<float> y_ref(5 * 11);
  kernels::linear_forward_naive(x.data(), 5, 37, lin.weight().value.data(),
                                lin.bias().value.data(), 11, y_ref.data());
  expect_close(y.flat(), y_ref, 1e-4f, "linear forward");

  const auto gout = random_tensor({5, 11}, 37);
  lin.weight().zero_grad();
  lin.bias().zero_grad();
  const Tensor gx = lin.backward(gout, ws);
  std::vector<float> gx_ref(x.numel(), 0.0f);
  std::vector<float> gw_ref(lin.weight().value.numel(), 0.0f);
  std::vector<float> gb_ref(11, 0.0f);
  kernels::linear_backward_naive(x.data(), 5, 37, lin.weight().value.data(),
                                 11, gout.data(), gx_ref.data(), gw_ref.data(),
                                 gb_ref.data());
  expect_close(gx.flat(), gx_ref, 1e-4f, "linear grad_input");
  expect_close(lin.weight().grad.flat(), gw_ref, 1e-4f, "linear grad_weight");
  expect_close(lin.bias().grad.flat(), gb_ref, 1e-4f, "linear grad_bias");
}

// ---------------------------------------------------------------------------
// Gradient checks through the GEMM backend
// ---------------------------------------------------------------------------

TEST(KernelGradcheck, ConvThroughGemmBackend) {
  for (const auto& p : {ConvShape{2, 2, 3, 5, 14}, ConvShape{2, 2, 2, 1, 8}}) {
    Conv1d conv(p.cin, p.cout, p.k);
    Rng rng(41);
    he_normal_init(conv.weight().value, rng);
    const auto x = random_tensor({p.batch, p.cin, p.n}, 43);
    // Slightly larger FD step than the default: near-zero gradient entries
    // otherwise sit at the float forward-pass noise floor and trip the
    // relative bound (the FMA contraction of the GEMM path shifts rounding
    // by a few ulp vs plain mul+add).
    const auto result = check_layer_gradients(conv, x, /*epsilon=*/4e-3);
    EXPECT_TRUE(result.passed)
        << "k=" << p.k << " abs=" << result.max_abs_error
        << " rel=" << result.max_rel_error;
  }
}

TEST(KernelGradcheck, LinearThroughGemmBackend) {
  Linear lin(9, 6);
  Rng rng(47);
  he_normal_init(lin.weight().value, rng);
  EXPECT_TRUE(check_layer_gradients(lin, random_tensor({3, 9}, 53)).passed);
}

// ---------------------------------------------------------------------------
// Intra-op threading: bit-identical to the single-threaded kernels
// ---------------------------------------------------------------------------
// The threaded drivers only repartition the macro-loops; the per-element
// summation order is untouched, so these compare BITWISE (not within a
// tolerance). ParallelGrainGuard(1) forces even these small shapes through
// the parallel path; on a single-core machine the chunks still execute
// (oversubscribed), so the coverage does not depend on the host's cores.

TEST(GemmThreaded, BitIdenticalAcrossThreadCounts) {
  kernels::ParallelGrainGuard grain(1);
  struct Shape {
    std::size_t m, n, k;
  };
  // Wide shapes take the column partition, the tall one the row partition
  // (n = 8 < kMinColsPerChunk); the last is ragged in every dimension and
  // crosses the MC (132 rows) and KC (256 depth) cache blocks.
  for (const auto& p :
       {Shape{5, 301, 40}, Shape{301, 8, 40}, Shape{137, 97, 300}}) {
    std::uint64_t seed = 900;
    for (bool ta : {false, true}) {
      for (bool tb : {false, true}) {
        const auto a = random_vec(p.m * p.k, seed++);
        const auto b = random_vec(p.k * p.n, seed++);
        const std::size_t lda = ta ? p.m : p.k;
        const std::size_t ldb = tb ? p.k : p.n;
        for (float alpha : {1.0f, -0.5f}) {
          for (float beta : {0.0f, 0.25f}) {
            const auto c0 = random_vec(p.m * p.n, seed);
            auto c_ref = c0;
            {
              kernels::IntraOpGuard intra(1);
              kernels::sgemm(ta, tb, p.m, p.n, p.k, alpha, a.data(), lda,
                             b.data(), ldb, beta, c_ref.data(), p.n);
            }
            for (std::size_t threads : {2u, 3u, 8u}) {
              kernels::IntraOpGuard intra(threads);
              auto c_thr = c0;
              kernels::sgemm(ta, tb, p.m, p.n, p.k, alpha, a.data(), lda,
                             b.data(), ldb, beta, c_thr.data(), p.n);
              expect_bit_equal(c_thr, c_ref, "threaded gemm");
            }
            ++seed;
          }
        }
      }
    }
  }
}

TEST(GemmThreaded, ConvBitIdenticalAcrossThreadCounts) {
  kernels::ParallelGrainGuard grain(1);
  struct Shape {
    std::size_t batch, cin, cout, k, n;
  };
  // batch > 1 exercises the batch partition (including a ragged 5-way
  // split); the batch == 1 shapes check that the budget does not change a
  // one-item conv, which never splits. Every shape also runs with an
  // epilogue.
  for (const auto& p :
       {Shape{5, 3, 8, 7, 40}, Shape{1, 4, 32, 5, 33}, Shape{8, 1, 16, 64, 192},
        Shape{1, 16, 16, 64, 384}}) {
    const auto w = random_vec(p.cout * p.cin * p.k, 501);
    const auto bias = random_vec(p.cout, 503);
    const auto x = random_vec(p.batch * p.cin * p.n, 505);
    const auto mean = random_vec(p.cout, 507);
    const auto gamma = random_vec(p.cout, 509);
    const auto beta = random_vec(p.cout, 511);
    std::vector<float> inv_std = random_vec(p.cout, 513);
    for (float& v : inv_std) v = 0.5f + std::fabs(v);
    const kernels::ConvEpilogue bn_relu{mean.data(), inv_std.data(),
                                        gamma.data(), beta.data(), true};
    for (const kernels::ConvEpilogue* epi :
         {static_cast<const kernels::ConvEpilogue*>(nullptr), &bn_relu}) {
      SCOPED_TRACE(epi != nullptr ? "with epilogue" : "plain");
      std::vector<float> out_ref(p.batch * p.cout * p.n);
      {
        kernels::IntraOpGuard intra(1);
        kernels::sgemm_conv(p.cout, p.batch, w.data(), bias.data(), x.data(),
                            p.cin, p.n, p.k, out_ref.data(), epi);
      }
      for (std::size_t threads : {2u, 3u, 4u, 8u}) {
        SCOPED_TRACE("budget " + std::to_string(threads));
        kernels::IntraOpGuard intra(threads);
        std::vector<float> out(p.batch * p.cout * p.n,
                               std::numeric_limits<float>::quiet_NaN());
        kernels::sgemm_conv(p.cout, p.batch, w.data(), bias.data(), x.data(),
                            p.cin, p.n, p.k, out.data(), epi);
        expect_bit_equal(out, out_ref, "threaded conv");
      }
    }
  }
}

TEST(GemmThreaded, GradcheckThroughThreadedBackward) {
  kernels::ParallelGrainGuard grain(1);
  kernels::IntraOpGuard intra(4);
  // out_len 70 >= 2 * kMinColsPerChunk, so the backward dX/dW products
  // actually split under the 4-thread budget.
  Conv1d conv(2, 3, 5);
  Rng rng(41);
  he_normal_init(conv.weight().value, rng);
  // FD step larger again than the 4e-3 of the unthreaded gradchecks: the
  // longer out_len (70 vs 14) deepens the reductions, pushing the noise
  // floor of near-zero gradient entries above the smaller steps.
  const auto result = check_layer_gradients(
      conv, random_tensor({2, 2, 70}, 43), /*epsilon=*/1.6e-2);
  EXPECT_TRUE(result.passed) << "abs=" << result.max_abs_error
                             << " rel=" << result.max_rel_error;

  // in = 70 so the backward dX (m=batch, n=70) and dW (m=6, n=70)
  // products split as well.
  Linear lin(70, 6);
  Rng rng_lin(47);
  he_normal_init(lin.weight().value, rng_lin);
  const auto lin_result = check_layer_gradients(
      lin, random_tensor({3, 70}, 53), /*epsilon=*/4e-3);
  EXPECT_TRUE(lin_result.passed) << "abs=" << lin_result.max_abs_error
                                 << " rel=" << lin_result.max_rel_error;
}

/// Runs a few SGD steps on a Conv1d+Linear stack under the given intra-op
/// budget and returns all trained parameters plus the final forward
/// output (the "detections" of this toy model).
std::vector<float> train_tiny_stack(std::size_t threads) {
  kernels::ParallelGrainGuard grain(1);
  kernels::IntraOpGuard intra(threads);
  const std::size_t batch = 6, cin = 2, cout = 4, n = 20, classes = 3;
  Conv1d conv(cin, cout, 5);
  const std::size_t out_len = conv.output_length(n);
  Linear lin(cout * out_len, classes);
  Rng rng(71);
  he_normal_init(conv.weight().value, rng);
  he_normal_init(lin.weight().value, rng);
  conv.set_training(true);
  lin.set_training(true);
  Workspace ws_conv, ws_lin;
  const auto x = random_tensor({batch, cin, n}, 73);
  Param* params[] = {&conv.weight(), &conv.bias(), &lin.weight(),
                     &lin.bias()};
  for (int step = 0; step < 4; ++step) {
    Tensor y = conv.forward(x, ws_conv);
    y.reshape({batch, cout * out_len});
    const Tensor z = lin.forward(y, ws_lin);
    for (Param* p : params) p->zero_grad();
    Tensor gy = lin.backward(z, ws_lin);  // dL/dz = z for L = 0.5*|z|^2
    gy.reshape({batch, cout, out_len});
    conv.backward(gy, ws_conv);
    for (Param* p : params) {
      auto vals = p->value.flat();
      const auto grads = p->grad.flat();
      for (std::size_t i = 0; i < vals.size(); ++i)
        vals[i] -= 0.01f * grads[i];
    }
  }
  Tensor y = conv.forward(x, ws_conv);
  y.reshape({batch, cout * out_len});
  const Tensor z = lin.forward(y, ws_lin);
  std::vector<float> result;
  for (const Param* p : params)
    result.insert(result.end(), p->value.flat().begin(),
                  p->value.flat().end());
  result.insert(result.end(), z.flat().begin(), z.flat().end());
  return result;
}

TEST(GemmThreaded, TrainingBitParityAcrossThreadBudgets) {
  // Whole training runs — every weight after 4 SGD steps AND the final
  // model output — must be bit-identical whatever the kernel fan-out.
  const auto ref = train_tiny_stack(1);
  expect_bit_equal(train_tiny_stack(2), ref, "trained params+output, t=2");
  expect_bit_equal(train_tiny_stack(8), ref, "trained params+output, t=8");
}

// ---------------------------------------------------------------------------
// Pointwise kernels
// ---------------------------------------------------------------------------

TEST(Pointwise, AddInplace) {
  std::vector<float> y = {1.f, 2.f};
  const std::vector<float> x = {10.f, -10.f};
  kernels::add_inplace(2, x.data(), y.data());
  EXPECT_FLOAT_EQ(y[0], 11.f);
  EXPECT_FLOAT_EQ(y[1], -8.f);
}

TEST(Pointwise, ScaleShiftAndNormalize) {
  const std::vector<float> x = {1.f, 2.f, 3.f};
  std::vector<float> y(3);
  kernels::normalize_scale_shift(3, x.data(), 2.0f, 0.5f, 3.0f, 1.0f,
                                 y.data());
  EXPECT_FLOAT_EQ(y[0], -0.5f);  // 3*((1-2)*0.5)+1
  EXPECT_FLOAT_EQ(y[1], 1.0f);   // 3*((2-2)*0.5)+1
  EXPECT_FLOAT_EQ(y[2], 2.5f);   // 3*((3-2)*0.5)+1
}

TEST(Pointwise, StandardizeMatchesDefinition) {
  const auto src = random_vec(64, 61);
  std::vector<float> dst(64);
  kernels::standardize(src, dst.data());
  double m = 0.0;
  for (float v : dst) m += static_cast<double>(v);
  m /= 64.0;
  double var = 0.0;
  for (float v : dst) var += (static_cast<double>(v) - m) * (static_cast<double>(v) - m);
  var /= 64.0;
  EXPECT_NEAR(m, 0.0, 1e-6);
  EXPECT_NEAR(var, 1.0, 1e-5);
}

TEST(Pointwise, StandardizeConstantWindowIsZero) {
  const std::vector<float> src(16, 3.25f);
  std::vector<float> dst(16, 99.f);
  kernels::standardize(src, dst.data());
  for (float v : dst) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(Pointwise, StandardizeInPlaceAliasingIsSafe) {
  // DatasetBuilder::standardize_window standardizes a vector onto itself;
  // the kernel computes both statistics before writing, so src == dst must
  // be supported.
  auto v = random_vec(32, 67);
  auto expected = v;
  std::vector<float> out(32);
  kernels::standardize(expected, out.data());
  kernels::standardize(v, v.data());
  expect_close(v, out, 1e-6f, "in-place standardize");
}

// ---------------------------------------------------------------------------
// Tensor reshape/view
// ---------------------------------------------------------------------------

TEST(TensorReshape, ReusesStorage) {
  Tensor t({4, 6});
  const float* before = t.data();
  t.reshape({2, 12});
  EXPECT_EQ(t.data(), before);  // no realloc, no copy
  EXPECT_EQ(t.dim(0), 2u);
  EXPECT_EQ(t.dim(1), 12u);
  t.reshape({24});
  EXPECT_EQ(t.data(), before);
  EXPECT_EQ(t.rank(), 1u);
}

TEST(TensorReshape, StridesFollowNewShape) {
  Tensor t({2, 3, 4});
  for (std::size_t i = 0; i < t.numel(); ++i) t.at(i) = static_cast<float>(i);
  t.reshape({4, 6});
  EXPECT_FLOAT_EQ(t.at(1, 2), 8.0f);  // row-major flat index 1*6+2
}

TEST(TensorReshape, NumelMismatchThrows) {
  Tensor t({3, 5});
  EXPECT_THROW(t.reshape({4, 4}), Error);
}

TEST(TensorResize, ShrinkKeepsAllocation) {
  Tensor t({8, 1, 64});
  const float* before = t.data();
  t.resize({3, 1, 64});
  EXPECT_EQ(t.data(), before);
  EXPECT_EQ(t.dim(0), 3u);
  t.resize({8, 1, 64});  // regrow within capacity
  EXPECT_EQ(t.data(), before);
}

}  // namespace
}  // namespace scalocate::nn
