// Shared helpers for the benchmark/reproduction harnesses.
//
// Every bench prints the paper's rows next to the measured ones. Workload
// sizes scale with the SCALOCATE_SCALE environment variable (default 1.0;
// e.g. SCALOCATE_SCALE=4 for a deeper run, =0.5 for a smoke run).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/locator.hpp"
#include "core/metrics.hpp"
#include "obs/histogram.hpp"
#include "obs/json.hpp"
#include "trace/scenario.hpp"

namespace scalocate::bench {

inline double scale() {
  if (const char* s = std::getenv("SCALOCATE_SCALE")) {
    const double v = std::atof(s);
    if (v > 0.0) return v;
  }
  return 1.0;
}

inline std::size_t scaled(std::size_t base) {
  const auto v = static_cast<std::size_t>(static_cast<double>(base) * scale());
  return v > 0 ? v : 1;
}

/// Epochs used by the bench trainings (env SCALOCATE_EPOCHS, default 10:
/// enough for >90% test accuracy on the scaled datasets while keeping the
/// full suite within minutes; see EXPERIMENTS.md).
inline std::size_t bench_epochs() {
  if (const char* s = std::getenv("SCALOCATE_EPOCHS")) {
    const auto v = static_cast<std::size_t>(std::atoi(s));
    if (v > 0) return v;
  }
  return 10;
}

struct Timer {
  std::chrono::steady_clock::time_point t0 = std::chrono::steady_clock::now();
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  }
};

/// Latency/throughput summary of one benchmark run (milliseconds out).
/// Shared by bench_service and bench_overload.
struct LatencySummary {
  std::size_t count = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
  double max_ms = 0.0;
  double throughput_per_s = 0.0;  ///< items per wall-clock second
};

/// Summarizes a job-latency histogram in nanoseconds (a Session's
/// `latency_ns` snapshot): count, mean and max are exact, p50 and p99
/// within the histogram's bucket resolution (~3.1%).
inline LatencySummary summarize_latencies(const obs::Histogram::Snapshot& ns,
                                          double wall_seconds) {
  LatencySummary s;
  s.count = ns.count;
  if (s.count == 0) return s;
  s.mean_ms = ns.mean() / 1e6;
  s.max_ms = static_cast<double>(ns.max) / 1e6;
  s.p50_ms = ns.quantile(0.50) / 1e6;
  s.p99_ms = ns.quantile(0.99) / 1e6;
  s.throughput_per_s =
      wall_seconds > 0.0 ? static_cast<double>(s.count) / wall_seconds : 0.0;
  return s;
}

// ---------------------------------------------------------------------------
// BENCH_*.json snapshots: every reproduction bench emits a machine-readable
// twin of its stdout report, so CI can gate on regressions instead of
// reconstructing the perf trajectory from prose. Layout contract (consumed
// by bench_check and the perf-regression CI job): a top-level object with
// "bench" (string), "scale" (double), and bench-specific sections; latency
// summaries always spell out p50_ms/p99_ms/traces_per_s.
// ---------------------------------------------------------------------------

/// Output path for a bench snapshot: $SCALOCATE_BENCH_DIR/BENCH_<name>.json
/// (directory defaults to the working directory).
inline std::string bench_json_path(const std::string& name) {
  std::string dir = ".";
  if (const char* d = std::getenv("SCALOCATE_BENCH_DIR")) dir = d;
  return dir + "/BENCH_" + name + ".json";
}

/// Writes the snapshot and echoes the path on stdout (the CI jobs grep for
/// the "wrote " line to know emission happened).
inline void write_bench_json(const std::string& name,
                             const obs::JsonWriter& writer) {
  const std::string path = bench_json_path(name);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  detail::require(static_cast<bool>(out),
                  "write_bench_json: cannot open " + path);
  out << writer.str() << "\n";
  detail::require(static_cast<bool>(out),
                  "write_bench_json: short write to " + path);
  out.close();
  std::printf("wrote %s\n", path.c_str());
}

/// Emits a LatencySummary as a JSON object value under the current writer
/// position (caller supplies the key).
inline void summary_to_json(obs::JsonWriter& w, const LatencySummary& s) {
  w.begin_object();
  w.kv("count", s.count);
  w.kv("p50_ms", s.p50_ms);
  w.kv("p99_ms", s.p99_ms);
  w.kv("mean_ms", s.mean_ms);
  w.kv("max_ms", s.max_ms);
  w.kv("traces_per_s", s.throughput_per_s);
  w.end_object();
}

/// Trains a locator for one (cipher, RD) pair on freshly acquired traces.
struct TrainedSetup {
  core::CoLocator locator;
  core::TrainReport report;
  crypto::Key16 key;
  trace::ScenarioConfig scenario;
};

inline TrainedSetup train_locator(
    crypto::CipherId cipher, trace::RandomDelayConfig rd, std::uint64_t seed,
    std::size_t n_captures = 512, std::size_t noise_instr = 150000,
    const std::function<void(core::LocatorConfig&)>& tweak = {}) {
  trace::ScenarioConfig sc;
  sc.cipher = cipher;
  sc.random_delay = rd;
  sc.seed = seed;

  crypto::Key16 key{};
  for (int i = 0; i < 16; ++i)
    key[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(0x10 + i);

  auto acq = trace::acquire_cipher_traces(sc, scaled(n_captures), key);
  auto noise = trace::acquire_noise_trace(sc, scaled(noise_instr));

  core::LocatorConfig lc;
  lc.params = core::PipelineParams::defaults_for(cipher);
  lc.params.epochs = bench_epochs();
  lc.seed = seed ^ 0x10cULL;
  if (tweak) tweak(lc);
  TrainedSetup setup{core::CoLocator(lc), {}, key, sc};
  setup.report = setup.locator.train(acq, noise);
  return setup;
}

}  // namespace scalocate::bench
