// Correlation Power Analysis (Brier et al. 2004) with incremental
// accumulators and time aggregation.
//
// Traces are added one at a time; per-sample-bin Pearson correlations
// against the 16 x 256 key-byte hypotheses are maintained incrementally so
// the "#traces to rank 1" metric of Table II can be evaluated at any point
// without re-processing.
//
// Aggregation over time (Section IV-C): each trace is reduced to
// non-overlapping bins of `aggregate_bin` samples (sums), which absorbs the
// residual intra-CO jitter left by the random-delay countermeasure after
// alignment.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "crypto/cipher.hpp"
#include "sca/leakage.hpp"

namespace scalocate::sca {

struct CpaConfig {
  std::size_t segment_length = 0;   ///< samples per aligned trace (required)
  std::size_t aggregate_bin = 16;   ///< samples summed per bin (>= 1)
  LeakageModel model = LeakageModel::kHammingWeight;
};

/// Result of ranking the 256 guesses of one key byte.
struct ByteRank {
  std::uint8_t best_guess = 0;
  double best_correlation = 0.0;
  std::size_t true_key_rank = 0;   ///< 0 = true key is rank 1 (best)
  double true_key_correlation = 0.0;
};

class CpaAttack {
 public:
  explicit CpaAttack(CpaConfig config);

  /// Adds one aligned trace with its plaintext.
  void add_trace(std::span<const float> segment,
                 const crypto::Block16& plaintext);

  std::size_t bins() const { return n_bins_; }

  /// max_j |rho[b][guess][j]| for one byte/guess.
  double best_correlation(std::size_t byte_index, std::uint8_t guess) const;

  /// Ranks all guesses of byte b against the true key byte.
  ByteRank rank_byte(std::size_t byte_index, std::uint8_t true_key_byte) const;

  /// Ranks all 16 bytes; `rank1_bytes` counts bytes recovered at rank 1.
  struct KeyRank {
    std::array<ByteRank, 16> bytes;
    std::size_t rank1_bytes = 0;
    bool full_key_rank1() const { return rank1_bytes == 16; }
  };
  KeyRank rank_key(const crypto::Key16& true_key) const;

  /// Highest-correlation guess per byte (the recovered key).
  crypto::Key16 recovered_key() const;

 private:
  double correlation(std::size_t byte_index, std::uint8_t guess,
                     std::size_t bin) const;

  CpaConfig config_;
  std::size_t n_bins_;
  std::size_t n_traces_ = 0;

  // Accumulators. Hypotheses depend only on (byte, guess); bins only on the
  // trace. Layout: h-index = byte*256 + guess; hx index = h-index*n_bins + bin.
  std::vector<double> sum_h_, sum_h2_;   // [16*256]
  std::vector<double> sum_x_, sum_x2_;   // [n_bins]
  std::vector<double> sum_hx_;           // [16*256*n_bins]
  std::vector<float> binned_;            // scratch
};

}  // namespace scalocate::sca
