// Fixed-bucket log-scale histogram for latency/size distributions, plus the
// system-wide exact-percentile helper (the one sorted-sample quantile
// implementation).
//
// Design constraints (serving hot path):
//   - record() is lock-free and allocation-free: one bucket index
//     computation (bit twiddling) and a handful of relaxed atomic RMWs;
//   - writers from many threads land on per-thread shards (cacheline
//     padded) so concurrent recording does not ping-pong one bucket array;
//   - snapshots merge the shards and answer exact-rank quantile queries
//     with bounded relative error.
//
// Bucketing is HDR-style base-2-with-sub-buckets: values below 2^kSubBits
// get exact unit buckets; above, each power-of-two octave is split into
// 2^kSubBits linear sub-buckets, so the relative width of any bucket is at
// most 2^-kSubBits and a quantile answered at the bucket midpoint is within
// 2^-(kSubBits+1) (~3.1% for kSubBits = 4) of the true sample — the
// "bucket-resolution error" the tests assert against a sorted-vector
// oracle. Values are unsigned 64-bit in a caller-chosen unit; by repo
// convention time histograms record nanoseconds and carry a `_ns` name
// suffix (see README "Observability").
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <span>

namespace scalocate::obs {

/// Linear-interpolated percentile over samples sorted ascending, q clamped
/// into [0, 1]. Empty input returns 0. This is THE exact-percentile
/// implementation of the codebase; Histogram::Snapshot::quantile uses the
/// same rank convention (pos = q * (n - 1)) over its merged buckets.
double percentile_sorted(std::span<const double> sorted, double q);

class Histogram {
 public:
  static constexpr std::size_t kSubBits = 4;  ///< sub-buckets per octave: 16
  static constexpr std::size_t kSubBuckets = std::size_t{1} << kSubBits;
  /// Unit buckets [0, kSubBuckets) + (64 - kSubBits) split octaves.
  static constexpr std::size_t kBuckets = (64 - kSubBits + 1) * kSubBuckets;
  static constexpr std::size_t kShards = 4;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Records one sample. Lock-free, no allocation; safe from any thread.
  void record(std::uint64_t value) noexcept;

  /// Total samples recorded (merged over shards).
  std::uint64_t count() const noexcept;

  /// Inclusive lower bound of the bucket `value` falls into, and the
  /// midpoint used as the bucket's representative in quantile queries.
  static std::size_t bucket_index(std::uint64_t value) noexcept;
  static std::uint64_t bucket_lower(std::size_t index) noexcept;
  static std::uint64_t bucket_midpoint(std::size_t index) noexcept;

  /// Point-in-time merged view answering quantile/mean queries. Taking a
  /// snapshot while writers are active is safe (each shard cell is read
  /// atomically); the result is then a slightly stale but valid histogram.
  struct Snapshot {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;  ///< exact smallest recorded value (0 if empty)
    std::uint64_t max = 0;  ///< exact largest recorded value
    std::array<std::uint64_t, kBuckets> buckets{};

    /// Quantile by percentile_sorted's rank convention (linear
    /// interpolation between the two neighboring ranks), each rank
    /// answered at its bucket midpoint; q clamped to [0, 1]. q=0 returns
    /// the exact min, q=1 the exact max.
    double quantile(double q) const;
    double mean() const {
      return count ? static_cast<double>(sum) / static_cast<double>(count) : 0.0;
    }
    /// Merges another snapshot into this one (cross-instrument roll-ups).
    void merge(const Snapshot& other);
  };
  Snapshot snapshot() const;

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> min{UINT64_MAX};
    std::atomic<std::uint64_t> max{0};
  };

  Shard& my_shard() noexcept;

  std::array<Shard, kShards> shards_;
};

}  // namespace scalocate::obs
