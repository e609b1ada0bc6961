#include "obs/histogram.hpp"

#include <algorithm>
#include <bit>

namespace scalocate::obs {

double percentile_sorted(std::span<const double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  if (q <= 0.0) return sorted.front();
  if (q >= 1.0) return sorted.back();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= sorted.size()) return sorted.back();
  return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
}

std::size_t Histogram::bucket_index(std::uint64_t value) noexcept {
  if (value < kSubBuckets) return static_cast<std::size_t>(value);
  const int msb = 63 - std::countl_zero(value);
  const int shift = msb - static_cast<int>(kSubBits);
  const auto sub =
      static_cast<std::size_t>((value >> shift) & (kSubBuckets - 1));
  return (static_cast<std::size_t>(msb) - kSubBits + 1) * kSubBuckets + sub;
}

std::uint64_t Histogram::bucket_lower(std::size_t index) noexcept {
  if (index < kSubBuckets) return index;
  const std::size_t block = index / kSubBuckets;  // >= 1
  const std::size_t sub = index % kSubBuckets;
  const std::size_t msb = block + kSubBits - 1;
  return (std::uint64_t{1} << msb) |
         (static_cast<std::uint64_t>(sub) << (msb - kSubBits));
}

std::uint64_t Histogram::bucket_midpoint(std::size_t index) noexcept {
  if (index < kSubBuckets) return index;  // unit buckets are exact
  const std::size_t msb = index / kSubBuckets + kSubBits - 1;
  const std::uint64_t width = std::uint64_t{1} << (msb - kSubBits);
  return bucket_lower(index) + width / 2;
}

Histogram::Shard& Histogram::my_shard() noexcept {
  // Threads get stable, roughly round-robin shard slots: a process-wide
  // relaxed counter hands out ids on first use per thread.
  static std::atomic<std::size_t> next_thread{0};
  thread_local const std::size_t slot =
      next_thread.fetch_add(1, std::memory_order_relaxed) % kShards;
  return shards_[slot];
}

void Histogram::record(std::uint64_t value) noexcept {
  Shard& s = my_shard();
  s.buckets[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
  s.count.fetch_add(1, std::memory_order_relaxed);
  s.sum.fetch_add(value, std::memory_order_relaxed);
  std::uint64_t seen = s.min.load(std::memory_order_relaxed);
  while (value < seen &&
         !s.min.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
  seen = s.max.load(std::memory_order_relaxed);
  while (value > seen &&
         !s.max.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

std::uint64_t Histogram::count() const noexcept {
  std::uint64_t total = 0;
  for (const Shard& s : shards_) total += s.count.load(std::memory_order_relaxed);
  return total;
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot out;
  std::uint64_t min = UINT64_MAX;
  for (const Shard& s : shards_) {
    for (std::size_t i = 0; i < kBuckets; ++i)
      out.buckets[i] += s.buckets[i].load(std::memory_order_relaxed);
    out.count += s.count.load(std::memory_order_relaxed);
    out.sum += s.sum.load(std::memory_order_relaxed);
    min = std::min(min, s.min.load(std::memory_order_relaxed));
    out.max = std::max(out.max, s.max.load(std::memory_order_relaxed));
  }
  out.min = out.count ? min : 0;
  return out;
}

double Histogram::Snapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  if (q <= 0.0) return static_cast<double>(min);
  if (q >= 1.0) return static_cast<double>(max);
  // Same rank convention as percentile_sorted: linear interpolation at
  // fractional position q*(n-1) of the sorted sequence, between the two
  // neighboring samples — each answered at its bucket's midpoint, clamped
  // into the exact [min, max] envelope.
  const auto at_rank = [this](std::uint64_t rank) {
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      cum += buckets[i];
      if (cum > rank)
        return std::clamp(static_cast<double>(bucket_midpoint(i)),
                          static_cast<double>(min), static_cast<double>(max));
    }
    return static_cast<double>(max);
  };
  const double pos = q * static_cast<double>(count - 1);
  const auto lo = static_cast<std::uint64_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0) return at_rank(lo);
  return at_rank(lo) * (1.0 - frac) + at_rank(lo + 1) * frac;
}

void Histogram::Snapshot::merge(const Snapshot& other) {
  if (other.count == 0) return;
  for (std::size_t i = 0; i < kBuckets; ++i) buckets[i] += other.buckets[i];
  min = count == 0 ? other.min : std::min(min, other.min);
  max = std::max(max, other.max);
  count += other.count;
  sum += other.sum;
}

}  // namespace scalocate::obs
