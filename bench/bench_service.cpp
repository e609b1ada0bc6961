// Concurrent serving benchmark through the api facade: traces/sec and
// p50/p99 job latency of an Engine/Session on the Table-2 workload
// (AES-128 under RD-2) as the worker count grows, plus the streaming
// session's single-stream overhead vs the offline path.
//
// One model is trained once and shared read-only by every worker; each
// worker owns only its activation workspace. On a machine with >= 4 cores
// the 4-worker row should show close to 4x the 1-worker throughput (the
// per-job latency stays roughly flat until workers exceed cores).
//
// Every worker row runs its Engine against a fresh obs::Registry, and the
// whole run is emitted as BENCH_service.json (see bench_common.hpp for the
// layout contract): the row's latency summary is read from the session's
// `latency_ns` histogram (enqueue to end of each job), next to the embedded
// "metrics" object, the engine's whole telemetry snapshot.
//
// SCALOCATE_SCALE scales the workload (0.25 = CI smoke run).
#include <cstdio>

#include "api/scalocate.hpp"
#include "bench_common.hpp"
#include "obs/registry.hpp"

using namespace scalocate;

int main() {
  std::printf("== bench_service: concurrent locate throughput ==\n");
  std::printf("scale=%.2f  hardware threads=%u\n\n", bench::scale(),
              std::thread::hardware_concurrency());

  bench::Timer setup_timer;
  auto setup = bench::train_locator(crypto::CipherId::kAes128,
                                    trace::RandomDelayConfig::kRd2, 0xbe5eed);
  const double train_seconds = setup_timer.seconds();
  std::printf("trained in %.1f s (test accuracy %.3f)\n", train_seconds,
              setup.report.test_confusion.accuracy());

  // Job pool: distinct eval traces so workers do not share cache lines.
  const std::size_t n_traces = bench::scaled(8);
  const std::size_t n_cos = bench::scaled(12);
  std::vector<trace::Trace> traces;
  traces.reserve(n_traces);
  for (std::size_t i = 0; i < n_traces; ++i)
    traces.push_back(trace::acquire_eval_trace(setup.scenario, n_cos,
                                               setup.key, i % 2 == 1));
  const std::size_t n_jobs = bench::scaled(32);

  // Reference result per trace (sequential offline path).
  std::vector<std::vector<std::size_t>> reference;
  reference.reserve(traces.size());
  for (const auto& t : traces)
    reference.push_back(setup.locator.locate(t.samples));

  obs::JsonWriter json;
  json.begin_object();
  json.kv("bench", "service");
  json.kv("scale", bench::scale());
  json.kv("epochs", bench::bench_epochs());
  json.kv("hardware_threads",
          static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  json.kv("train_seconds", train_seconds);
  json.kv("accuracy", setup.report.test_confusion.accuracy());
  json.kv("jobs_per_row", n_jobs);
  json.key("rows").begin_array();

  std::printf("\n%-8s %12s %10s %10s %10s %9s\n", "workers", "traces/s",
              "p50 ms", "p99 ms", "mean ms", "speedup");
  double baseline_tput = 0.0;
  for (std::size_t workers : {1u, 2u, 4u, 8u}) {
    // Fresh registry per row: each engine's counters start at zero, so the
    // embedded snapshot is exactly this row's story.
    obs::Registry registry;
    api::Engine engine({.workers = workers, .registry = &registry});
    engine.attach_model(setup.locator);
    auto session = engine.open_session();
    std::vector<std::future<std::vector<std::size_t>>> futures;
    futures.reserve(n_jobs);

    bench::Timer wall;
    for (std::size_t j = 0; j < n_jobs; ++j)
      futures.push_back(
          session.submit_view(traces[j % traces.size()].samples));

    std::size_t mismatches = 0;
    for (std::size_t j = 0; j < n_jobs; ++j)
      if (futures[j].get() != reference[j % traces.size()]) ++mismatches;
    const double elapsed = wall.seconds();
    // drain() waits for the worker-side accounting, so the latency
    // histogram holds every job.
    session.drain();

    const auto s = bench::summarize_latencies(
        session.metrics().latency_ns->snapshot(), elapsed);
    if (baseline_tput == 0.0) baseline_tput = s.throughput_per_s;
    std::printf("%-8zu %12.2f %10.1f %10.1f %10.1f %8.2fx", workers,
                s.throughput_per_s, s.p50_ms, s.p99_ms, s.mean_ms,
                baseline_tput > 0.0 ? s.throughput_per_s / baseline_tput
                                    : 0.0);
    if (mismatches > 0)
      std::printf("  [%zu MISMATCHED JOBS]", mismatches);
    std::printf("\n");

    json.begin_object();
    json.kv("workers", workers);
    json.kv("wall_seconds", elapsed);
    json.kv("mismatches", mismatches);
    json.kv("p50_ms", s.p50_ms);
    json.kv("p99_ms", s.p99_ms);
    json.kv("mean_ms", s.mean_ms);
    json.kv("max_ms", s.max_ms);
    json.kv("traces_per_s", s.throughput_per_s);
    json.key("metrics");
    registry.render_json_into(json);
    json.end_object();
  }
  json.end_array();

  // Streaming overhead: one stream fed in 4096-sample chunks vs the
  // offline locate on the same trace.
  const auto& probe = traces.front();
  bench::Timer offline_timer;
  const auto offline = setup.locator.locate(probe.samples);
  const double offline_s = offline_timer.seconds();

  obs::Registry stream_registry;
  api::Engine stream_engine({.workers = 1, .registry = &stream_registry});
  stream_engine.attach_model(setup.locator);
  auto streaming = stream_engine.open_session().open_stream();
  bench::Timer stream_timer;
  std::size_t streamed = 0;
  const std::span<const float> samples(probe.samples);
  for (std::size_t off = 0; off < samples.size(); off += 4096)
    streamed += streaming
                    .feed(samples.subspan(
                        off, std::min<std::size_t>(4096, samples.size() - off)))
                    .size();
  streamed += streaming.finish().size();
  const double stream_s = stream_timer.seconds();

  std::printf(
      "\nstreaming single trace: %.3f s vs offline %.3f s (%.2fx), "
      "%zu detections (offline %zu), resident tail %zu of %zu samples\n",
      stream_s, offline_s, offline_s > 0 ? stream_s / offline_s : 0.0,
      streamed, offline.size(), streaming.resident_samples(),
      probe.samples.size());

  json.key("streaming").begin_object();
  json.kv("stream_seconds", stream_s);
  json.kv("offline_seconds", offline_s);
  json.kv("overhead_x", offline_s > 0 ? stream_s / offline_s : 0.0);
  json.kv("detections", streamed);
  json.kv("offline_detections", offline.size());
  json.kv("resident_samples", streaming.resident_samples());
  json.kv("trace_samples", probe.samples.size());
  json.key("metrics");
  stream_registry.render_json_into(json);
  json.end_object();
  json.end_object();
  bench::write_bench_json("service", json);
  return 0;
}
