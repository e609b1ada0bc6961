// Spans: RAII scope timers feeding histograms, with an optional
// ring-buffered event trace for debugging streaming pipelines.
//
// A SpanTimer measures the lifetime of a scope on the steady clock and
// records the elapsed nanoseconds into a Histogram when it is destroyed —
// the zero-ceremony way to get p50/p99/p999 for any code region:
//
//   void handle(...) {
//     obs::SpanTimer span(registry.histogram("engine.aes.latency_ns"));
//     ...                                  // timed work
//   }                                      // destructor records
//
// Spans nest: a per-thread depth counter tags every traced event with its
// nesting level, so a TraceRing dump reconstructs the call structure
// (outer spans close after — and fully contain — their inner spans).
//
// The TraceRing is a bounded, overwrite-oldest event buffer. It exists for
// debugging (e.g. "what did the last 4096 pipeline stages do before the
// stall"), is disabled unless a ring is passed to the span, and costs one
// mutexed append per traced span — keep it off hot paths you care about.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/histogram.hpp"

namespace scalocate::obs {

/// One completed span, as kept by a TraceRing.
struct TraceEvent {
  std::string name;
  std::uint64_t start_ns = 0;  ///< steady-clock nanoseconds at span open
  std::uint64_t duration_ns = 0;
  std::uint32_t depth = 0;  ///< span nesting level on its thread (0 = root)
};

/// Bounded event trace: keeps the most recent `capacity` completed spans,
/// overwriting the oldest. Thread-safe.
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity = 4096);

  void push(TraceEvent event);

  /// Events currently resident, oldest first.
  std::vector<TraceEvent> dump() const;

  std::size_t capacity() const { return capacity_; }
  /// Total events ever pushed (>= dump().size() once the ring wrapped).
  std::uint64_t total_pushed() const;

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<TraceEvent> ring_;  ///< ring storage, wraps at capacity_
  std::size_t head_ = 0;          ///< next write slot
  std::uint64_t pushed_ = 0;
};

/// Nanoseconds on the steady clock since an arbitrary process-local epoch.
inline std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// RAII scope timer. Non-copyable, non-movable; stack-scoped by design.
class SpanTimer {
 public:
  /// Times the scope into `histogram`; when `ring` is non-null the span is
  /// also appended to the event trace under `name`.
  explicit SpanTimer(Histogram& histogram, TraceRing* ring = nullptr,
                     std::string_view name = {});
  ~SpanTimer();

  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

  std::uint32_t depth() const { return depth_; }

 private:
  Histogram& histogram_;
  TraceRing* ring_;
  std::string name_;
  std::uint64_t start_ns_;
  std::uint32_t depth_;
};

}  // namespace scalocate::obs
