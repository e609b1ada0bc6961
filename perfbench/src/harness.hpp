// The benchmark's own arithmetic: spans and their self time, the
// percentile rule, failure accounting and the closure check. Header-only
// and free of library dependencies so the self-tests link it alone.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed call into a layer. `name` is "<layer>.<call>"; the layer is
/// the text before the first dot (api, runtime, core, nn, kernels).
///
/// A child is either nested (recorded while its parent ran, inside the
/// parent's interval) or a replay: the library called that layer
/// internally, so the benchmark timed the same public call separately on
/// the same inputs. Nested children subtract the part of the parent's
/// interval they cover; replayed children subtract their duration.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index in the recorder; -1 = root
  std::uint64_t request = 0;  ///< one job, one feed or one training step
  bool replay = false;
};

inline std::string layer_of(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

/// In-memory span store; written out when the run ends. Thread-safe.
class SpanRecorder {
 public:
  /// Records a finished span and returns its id.
  std::int64_t add(Span span) {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  /// Opens a span now; close() stamps its end. Children may be added
  /// against the returned id before it closes.
  std::int64_t open(std::string name, std::int64_t parent,
                    std::uint64_t request, bool replay = false) {
    Span s;
    s.name = std::move(name);
    s.parent = parent;
    s.request = request;
    s.replay = replay;
    s.start_ns = now_ns();
    return add(std::move(s));
  }
  void close(std::int64_t id) {
    const std::int64_t t = now_ns();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end_ns = t;
  }

  std::vector<Span> spans() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

  /// Self time of every span: its duration minus the part of its interval
  /// that nested children cover (overlapping children count once) minus
  /// its replayed children's durations.
  static std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
    std::vector<std::vector<std::size_t>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
      if (spans[i].parent >= 0)
        children[static_cast<std::size_t>(spans[i].parent)].push_back(i);
    std::vector<std::int64_t> out(spans.size());
    for (std::size_t id = 0; id < spans.size(); ++id) {
      const Span& me = spans[id];
      std::int64_t replayed = 0;
      std::vector<std::pair<std::int64_t, std::int64_t>> nested;
      for (std::size_t ci : children[id]) {
        const Span& c = spans[ci];
        if (c.replay) {
          replayed += c.end_ns - c.start_ns;
          continue;
        }
        const std::int64_t lo = std::max(c.start_ns, me.start_ns);
        const std::int64_t hi = std::min(c.end_ns, me.end_ns);
        if (hi > lo) nested.emplace_back(lo, hi);
      }
      std::sort(nested.begin(), nested.end());
      std::int64_t covered = 0;
      std::int64_t run_lo = 0;
      std::int64_t run_hi = 0;  // empty run
      for (const auto& [lo, hi] : nested) {
        if (lo > run_hi) {
          covered += run_hi - run_lo;
          run_lo = lo;
        }
        run_hi = std::max(run_hi, hi);
      }
      covered += run_hi - run_lo;
      out[id] = (me.end_ns - me.start_ns) - covered - replayed;
    }
    return out;
  }

  /// Self time summed per layer, in nanoseconds.
  static std::map<std::string, double> self_by_layer(
      const std::vector<Span>& spans) {
    std::map<std::string, double> out;
    const auto self = self_times(spans);
    for (std::size_t i = 0; i < spans.size(); ++i)
      out[layer_of(spans[i].name)] += static_cast<double>(self[i]);
    return out;
  }

  /// Self time summed per span name, in nanoseconds.
  static std::map<std::string, double> self_by_name(
      const std::vector<Span>& spans) {
    std::map<std::string, double> out;
    const auto self = self_times(spans);
    for (std::size_t i = 0; i < spans.size(); ++i)
      out[spans[i].name] += static_cast<double>(self[i]);
    return out;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Linear-interpolated quantile of sorted samples (rank q*(n-1)); 0 when
/// empty.
inline double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

inline double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return quantile_sorted(v, 0.5);
}

/// Samples strictly beyond the per-mille rank `pm` of n samples:
/// n - ceil(n * pm / 1000), in integers so 0.9 * 100 is exactly 90.
inline std::size_t samples_beyond(std::size_t n, std::size_t pm) {
  return n - (n * pm + 999) / 1000;
}

/// The percentile rule: report the median plus the highest percentile of
/// {99.9, 99, 90, 75} with at least 10 samples beyond it. Returns that
/// percentile in per-mille, or 0 when the sample supports none of them.
inline std::size_t tail_per_mille(std::size_t n) {
  for (std::size_t pm : {999u, 990u, 900u, 750u})
    if (samples_beyond(n, pm) >= 10) return pm;
  return 0;
}

struct LatencySummary {
  std::size_t count = 0;
  double p50 = 0.0;
  std::size_t tail_pm = 0;  ///< 0 = no supported tail percentile
  double tail = 0.0;
};

inline LatencySummary summarize(std::vector<double> samples) {
  LatencySummary s;
  s.count = samples.size();
  std::sort(samples.begin(), samples.end());
  s.p50 = quantile_sorted(samples, 0.5);
  s.tail_pm = tail_per_mille(s.count);
  if (s.tail_pm > 0)
    s.tail = quantile_sorted(samples, static_cast<double>(s.tail_pm) / 1000.0);
  return s;
}

/// Output checks. Every operation attempted gets exactly one verdict; any
/// failure makes the run exit nonzero.
class Tally {
 public:
  void check(bool ok, const std::string& what) {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++attempted_;
    if (!ok) {
      ++failed_;
      if (notes_.size() < 16) notes_.push_back(what);
    }
  }
  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }
  double failed_fraction() const {
    return attempted_ == 0 ? 1.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
  }
  const std::vector<std::string>& notes() const { return notes_; }
  /// 0 only when something was checked and nothing failed.
  int exit_code() const { return attempted_ > 0 && failed_ == 0 ? 0 : 1; }

 private:
  std::mutex mutex_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::string> notes_;
};

/// The closure check of a traced slice: layer self times, summed and
/// divided by the operations traced, must land within `tolerance` (a share)
/// of the untraced time per operation, and no layer may account for a
/// negative share larger than `negative_tolerance`.
///
/// Each replayed child takes exactly its own duration out of its parent, so
/// the self times of a tree always sum to its root span: the sum compares
/// traced with untraced operation time. Only the negative-share test checks
/// attribution, since a replay slower than the call inside the library
/// drives its parent's self time below zero.
struct Closure {
  double layers_per_op_ns = 0.0;
  double untraced_per_op_ns = 0.0;
  double error = 0.0;  ///< (layers - untraced) / untraced
  bool ok = false;
};

inline Closure check_closure(const std::map<std::string, double>& layer_self_ns,
                             std::size_t ops, double untraced_per_op_ns,
                             double tolerance, double negative_tolerance) {
  Closure c;
  c.untraced_per_op_ns = untraced_per_op_ns;
  if (ops == 0 || untraced_per_op_ns <= 0.0) return c;
  double sum = 0.0;
  bool signs_ok = true;
  for (const auto& [layer, ns] : layer_self_ns) {
    sum += ns;
    if (ns / static_cast<double>(ops) <
        -negative_tolerance * untraced_per_op_ns)
      signs_ok = false;
  }
  c.layers_per_op_ns = sum / static_cast<double>(ops);
  c.error = (c.layers_per_op_ns - untraced_per_op_ns) / untraced_per_op_ns;
  c.ok = signs_ok && std::abs(c.error) <= tolerance;
  return c;
}

/// How fast the host ran the benchmark's own calibration work (speed.hpp):
/// the wall and thread CPU time of every calibration unit, pooled over
/// threads.
struct HostSpeed {
  std::vector<double> unit_wall_s;
  std::vector<double> unit_cpu_s;

  void add(const HostSpeed& o) {
    unit_wall_s.insert(unit_wall_s.end(), o.unit_wall_s.begin(),
                       o.unit_wall_s.end());
    unit_cpu_s.insert(unit_cpu_s.end(), o.unit_cpu_s.begin(),
                      o.unit_cpu_s.end());
  }
  /// The reference host's time per unit over the mean measured time (by
  /// wall or by CPU time): below 1 when the host ran slower than the
  /// reference. A measured time times the ratio is the time on the
  /// reference host. The units are spread evenly over the run's operation
  /// time, so their mean is the host's speed averaged over the run, as a
  /// throughput or a CPU time per sample averages it. 1 (no rescaling) when
  /// no unit ran.
  double wall_ratio(double reference_unit_s) const {
    return ratio(unit_wall_s, reference_unit_s);
  }
  double cpu_ratio(double reference_unit_s) const {
    return ratio(unit_cpu_s, reference_unit_s);
  }

 private:
  static double ratio(const std::vector<double>& unit_s,
                      double reference_unit_s) {
    if (unit_s.empty()) return 1.0;
    double sum = 0.0;
    for (double t : unit_s) sum += t;
    return reference_unit_s * static_cast<double>(unit_s.size()) / sum;
  }
};

/// Calibration cadence: one unit owed per `period_ns` of operation time,
/// remainders carried over, so calibration takes a fixed share of every
/// stretch of the run however long its operations are.
class Cadence {
 public:
  explicit Cadence(std::int64_t period_ns) : period_ns_(period_ns) {}
  /// Adds `op_ns` of operation time; returns the units now owed.
  std::size_t owed(std::int64_t op_ns) {
    banked_ns_ += op_ns;
    const std::int64_t n = banked_ns_ / period_ns_;
    banked_ns_ -= n * period_ns_;
    return static_cast<std::size_t>(n);
  }

 private:
  std::int64_t period_ns_;
  std::int64_t banked_ns_ = 0;
};

/// FNV-1a over a detection list: the digest recorded with the artifacts.
inline std::uint64_t digest(const std::vector<std::size_t>& values) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t v : values) {
    for (int b = 0; b < 8; ++b) {
      h ^= (static_cast<std::uint64_t>(v) >> (8 * b)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

/// The JSON result line and the human-readable metric lines.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
    std::printf("  %-44s %16.6f %s\n", name.c_str(), value, unit.c_str());
  }
  std::string json(bool correct, std::size_t attempted,
                   std::size_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", metrics_[i].value);
      if (i > 0) out += ", ";
      out += "\"" + metrics_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    out += "}}";
    return out;
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
};

}  // namespace perfbench
