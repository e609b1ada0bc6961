// Pipeline parameters (the paper's Table I) and their scaled defaults.
//
// The paper tunes, per cipher: the training window size Ntrain, the
// inference window size Ninf (smaller, enabled by global average pooling),
// the sliding stride s, and the dataset composition (cipher-start /
// cipher-rest / noise window counts). Our simulator produces shorter COs
// than the 125 MS/s FPGA captures, so the defaults below are scaled to CPU
// budgets while keeping the paper's proportions; `paper_value` fields
// record the original Table I numbers for the bench printouts.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

#include "crypto/cipher.hpp"

namespace scalocate::core {

struct DatasetSizes {
  std::size_t cipher_start = 0;  ///< class-c1 windows
  std::size_t cipher_rest = 0;   ///< class-c0 windows from cipher tails
  std::size_t noise = 0;         ///< class-c0 windows from the noise trace
};

struct PipelineParams {
  crypto::CipherId cipher = crypto::CipherId::kAes128;

  // --- window/stride parameters (scaled Table I) ---
  std::size_t n_train = 256;  ///< training window size (samples)
  std::size_t n_inf = 192;    ///< inference window size
  std::size_t stride = 48;    ///< sliding-window stride s

  // --- dataset composition (scaled Table I) ---
  DatasetSizes sizes{512, 512, 256};

  // --- training hyperparameters (Section IV-B) ---
  std::size_t batch_size = 64;
  float learning_rate = 1e-3f;
  /// The paper trains for 2 epochs over 130k-260k windows (~4000 Adam
  /// steps). The scaled datasets are ~100x smaller, so defaults_for() sets
  /// more epochs to land in a comparable gradient-step regime.
  std::size_t epochs = 2;
  double train_fraction = 0.80;
  double val_fraction = 0.15;  // test = 1 - train - val

  /// When true, cipher-rest windows are sampled at uniformly random offsets
  /// past the start window instead of the paper's consecutive N-aligned
  /// grid. At inference the slicer visits arbitrary offsets, so training on
  /// random offsets measurably improves the in-CO true-negative rate of the
  /// scaled (small-dataset) configuration; the paper's much larger datasets
  /// get the same coverage from volume. Set false for the paper's exact
  /// consecutive-split semantics.
  bool random_rest_offsets = true;

  /// Jitter augmentation for c1 windows: each cipher-start window begins at
  /// a uniform random offset in [0, start_jitter] samples past the detected
  /// CO start instead of exactly at it. 0 reproduces the paper's exact
  /// labeling. Jitter teaches the classifier to accept partially aligned
  /// windows, which widens the swc plateau the segmentation stage needs at
  /// coarse strides (the paper's 100x larger datasets achieve the same
  /// tolerance through the NOP-boundary estimation noise alone).
  std::size_t start_jitter = 0;

  // --- segmentation (Section III-D) ---
  /// Median filter window (odd). 0 selects an automatic size from the
  /// expected CO length and the stride.
  std::size_t median_filter_k = 0;
  /// Fixed decision threshold on the linear class-1 score; NaN selects the
  /// automatic threshold: Otsu's method on the trace's scores, with the
  /// histogram range clipped by otsu_clip_percentile.
  float threshold = std::numeric_limits<float>::quiet_NaN();
  /// Plateau-split merging: low runs of at most this many windows between
  /// two high runs are bridged (one plateau, one CO). Hardens segmentation
  /// against countermeasure raggedness — preemption splits, gain steps,
  /// clock jitter (see SegmenterConfig::merge_gap_windows). 0 disables.
  std::size_t merge_gap_windows = 0;
  /// Clips the automatic (Otsu) threshold's histogram range to the
  /// [p, 100-p] score percentiles, de-weighting outlier scores from drift
  /// and AGC jumps (see SegmenterConfig::otsu_clip_percentile). 0 keeps
  /// the exact min/max range.
  double otsu_clip_percentile = 0.0;

  // --- paper's original Table I values (for reporting only) ---
  std::size_t paper_mean_length = 0;
  std::size_t paper_n_train = 0;
  std::size_t paper_n_inf = 0;
  std::size_t paper_stride = 0;
  DatasetSizes paper_sizes{};

  /// Scaled defaults for each cipher, mirroring Table I proportions.
  static PipelineParams defaults_for(crypto::CipherId id);

  /// The verbatim Table I rows of the paper (unscaled).
  static PipelineParams paper_table1(crypto::CipherId id);
};

}  // namespace scalocate::core
