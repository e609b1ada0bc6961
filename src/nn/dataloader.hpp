// Mini-batch loader over a window-classification dataset.
//
// Holds (window, label) pairs, reshuffles each epoch with a deterministic
// Rng, and yields [B, 1, N] batches ready for the 1-channel CNN.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "nn/tensor.hpp"

namespace scalocate::nn {

struct Batch {
  Tensor inputs;                     // [B, 1, N]
  std::vector<std::uint8_t> labels;  // B entries
};

class DataLoader {
 public:
  /// windows: n rows of equal length N; labels: n class indices.
  DataLoader(std::vector<std::vector<float>> windows,
             std::vector<std::uint8_t> labels, std::size_t batch_size,
             std::uint64_t shuffle_seed, bool shuffle = true);

  /// Begins a new epoch (reshuffles when enabled).
  void start_epoch();

  /// Fetches the next batch; returns false at epoch end.
  bool next(Batch& out);

  std::size_t size() const { return windows_.size(); }

 private:
  std::vector<std::vector<float>> windows_;
  std::vector<std::uint8_t> labels_;
  std::size_t batch_size_;
  std::size_t window_length_;
  bool shuffle_;
  Rng rng_;
  std::vector<std::size_t> order_;
  std::size_t cursor_ = 0;
};

}  // namespace scalocate::nn
