// Registry: process-wide ownership of named telemetry instruments.
//
// A Registry hands out stable references to named counters, gauges,
// histograms and trace rings. Registration (first lookup of a name) takes a
// mutex; after that the caller holds a plain reference and every update is
// lock-free — the intended pattern is "resolve once at construction, update
// on the hot path":
//
//   obs::Registry reg;
//   obs::Counter& reqs = reg.counter("engine.aes.requests");
//   ...
//   reqs.add();                              // hot path, no locks
//
// Instrument naming scheme (dot-separated, lowercase, unit suffix on time
// series): `<layer>.<model-or-shape>.<metric>[_<unit>]`, e.g.
// `engine.aes.latency_ns`, `stream.camellia.samples_fed`, `pool.tasks`.
// See README "Observability".
//
// Snapshots render every instrument, sorted by name within kind, in two
// formats: render_text() for humans, render_json() for machines (the
// BENCH_*.json spine). Both are deterministic for a fixed set of
// instruments and values, regardless of registration order.
//
// Registry::global() is the process-wide instance; the default stream
// instruments and ad-hoc tooling record there.
// Subsystems that need isolation (tests, per-row bench runs) construct
// their own Registry and pass it down via config structs.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/histogram.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace scalocate::obs {

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry.
  static Registry& global();

  /// Finds or creates the named instrument. The returned reference stays
  /// valid for the registry's lifetime. Thread-safe.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);
  /// `capacity` applies only on first creation of the named ring.
  TraceRing& trace_ring(std::string_view name, std::size_t capacity = 4096);

  /// Human-readable snapshot (aligned columns; values in the instrument's
  /// own unit — the `_ns`/`_samples` name suffix says which).
  std::string render_text() const;

  /// Machine-readable snapshot:
  ///   {"counters": {name: value},
  ///    "gauges": {name: {"value": v, "max": m}},
  ///    "histograms": {name: {"count","min","max","mean",
  ///                          "p50","p90","p99","p999"}}}
  std::string render_json() const;

  /// Emits the same snapshot object through a caller-owned writer, so the
  /// benches can embed registry metrics inside a larger BENCH_*.json
  /// document.
  void render_json_into(JsonWriter& w) const;

 private:
  template <typename T, typename... Args>
  T& find_or_create(std::map<std::string, std::unique_ptr<T>, std::less<>>& map,
                    std::string_view name, Args&&... args);

  mutable std::mutex mutex_;
  // std::map: node-stable (references survive later registrations) and
  // name-ordered (snapshot determinism falls out of iteration order).
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::string, std::unique_ptr<TraceRing>, std::less<>> rings_;
};

}  // namespace scalocate::obs
