#include "nn/dataloader.hpp"

#include <numeric>

#include "common/error.hpp"

namespace scalocate::nn {

DataLoader::DataLoader(std::vector<std::vector<float>> windows,
                       std::vector<std::uint8_t> labels,
                       std::size_t batch_size, std::uint64_t shuffle_seed,
                       bool shuffle)
    : windows_(std::move(windows)),
      labels_(std::move(labels)),
      batch_size_(batch_size),
      window_length_(windows_.empty() ? 0 : windows_.front().size()),
      shuffle_(shuffle),
      rng_(shuffle_seed) {
  detail::require(batch_size_ >= 1, "DataLoader: batch_size must be >= 1");
  detail::require(windows_.size() == labels_.size(),
                  "DataLoader: windows/labels size mismatch");
  for (const auto& w : windows_)
    detail::require(w.size() == window_length_,
                    "DataLoader: ragged window lengths");
  order_.resize(windows_.size());
  std::iota(order_.begin(), order_.end(), std::size_t{0});
  start_epoch();
}

void DataLoader::start_epoch() {
  if (shuffle_) rng_.shuffle(order_);
  cursor_ = 0;
}

bool DataLoader::next(Batch& out) {
  if (cursor_ >= order_.size()) return false;
  const std::size_t count = std::min(batch_size_, order_.size() - cursor_);
  out.inputs = Tensor({count, 1, window_length_});
  out.labels.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t idx = order_[cursor_ + i];
    const auto& w = windows_[idx];
    std::copy(w.begin(), w.end(), out.inputs.data() + i * window_length_);
    out.labels[i] = labels_[idx];
  }
  cursor_ += count;
  return true;
}

}  // namespace scalocate::nn
