// Overload & fault-tolerance benchmark for the serving plane: what the
// Engine does when offered more work than it can absorb, and what it does
// when the work itself misbehaves.
//
// Four sections, all emitted into BENCH_overload.json and gated by
// bench/thresholds/overload.json in the chaos CI job:
//
//   baseline   unloaded per-job latency (sequential submits) — the yardstick
//              every overload row's p99 is measured against.
//   rows       an offered-load burst far beyond capacity against each
//              non-blocking admission policy (kRejectWhenFull,
//              kShedByDeadline). The contract under overload: drop excess
//              load with typed errors, keep the p99 of ACCEPTED jobs within
//              a small multiple of the unloaded baseline (bounded queueing,
//              never collapse), and return bit-identical detections for
//              every job that was accepted.
//   faults     injected worker crashes (runtime::FaultInjector) behind
//              api::with_retry: every request still succeeds, every result
//              still matches the offline reference, and the retries
//              telemetry reconciles exactly with the injected fault count.
//   watchdog   an injected 600 ms stall against a warmed p99 baseline must
//              raise watchdog_trips — slow-vs-stuck detection end to end.
//
// SCALOCATE_SCALE scales the workload (0.25 = CI smoke run).
#include <cstdio>
#include <future>

#include "api/scalocate.hpp"
#include "bench_common.hpp"
#include "obs/registry.hpp"
#include "runtime/fault_injector.hpp"

using namespace scalocate;

namespace {

const char* policy_name(api::AdmissionPolicy p) {
  switch (p) {
    case api::AdmissionPolicy::kBlock: return "block";
    case api::AdmissionPolicy::kRejectWhenFull: return "reject_when_full";
    case api::AdmissionPolicy::kShedByDeadline: return "shed_by_deadline";
  }
  return "?";
}

}  // namespace

int main() {
  std::printf("== bench_overload: admission control, shedding & faults ==\n");
  std::printf("scale=%.2f  hardware threads=%u\n\n", bench::scale(),
              std::thread::hardware_concurrency());
  runtime::FaultInjector::instance().reset();

  bench::Timer setup_timer;
  auto setup = bench::train_locator(crypto::CipherId::kCamellia128,
                                    trace::RandomDelayConfig::kRd2, 0xfade,
                                    384, 100000);
  const double train_seconds = setup_timer.seconds();
  std::printf("trained in %.1f s (test accuracy %.3f)\n", train_seconds,
              setup.report.test_confusion.accuracy());

  const std::size_t n_traces = 3;
  const std::size_t n_cos = bench::scaled(8);
  std::vector<trace::Trace> traces;
  traces.reserve(n_traces);
  for (std::size_t i = 0; i < n_traces; ++i)
    traces.push_back(
        trace::acquire_eval_trace(setup.scenario, n_cos, setup.key, i == 1));
  std::vector<std::vector<std::size_t>> reference;
  reference.reserve(n_traces);
  for (const auto& t : traces)
    reference.push_back(setup.locator.locate(t.samples));

  obs::JsonWriter json;
  json.begin_object();
  json.kv("bench", "overload");
  json.kv("scale", bench::scale());
  json.kv("epochs", bench::bench_epochs());
  json.kv("train_seconds", train_seconds);
  json.kv("accuracy", setup.report.test_confusion.accuracy());

  // -------------------------------------------------------------------------
  // Baseline: sequential submits, no contention — the unloaded latency.
  // -------------------------------------------------------------------------
  const std::size_t baseline_jobs = bench::scaled(8);
  double baseline_p99_s = 0.0;
  {
    api::Engine engine({.workers = 2});
    engine.attach_model(setup.locator);
    auto session = engine.open_session();
    bench::Timer wall;
    for (std::size_t j = 0; j < baseline_jobs; ++j) {
      if (session.submit_view(traces[j % n_traces].samples).get() !=
          reference[j % n_traces]) {
        std::fprintf(stderr, "baseline job %zu mismatched the reference\n", j);
        return 1;
      }
    }
    const double elapsed = wall.seconds();
    session.drain();
    const auto s = bench::summarize_latencies(
        session.metrics().latency_ns->snapshot(), elapsed);
    baseline_p99_s = s.p99_ms / 1e3;
    std::printf("\nbaseline (unloaded): p50 %.1f ms  p99 %.1f ms over %zu jobs\n",
                s.p50_ms, s.p99_ms, baseline_jobs);
    json.key("baseline");
    bench::summary_to_json(json, s);
  }

  // -------------------------------------------------------------------------
  // Overload rows: a burst of `offered` jobs against 2 workers and an
  // in-flight bound of 4 (max_queue_depth counts running + queued, so this
  // is 2 running + 2 sheddable queue slots). Everything past capacity must
  // be dropped with a typed error at admission time (reject) or eviction
  // time (shed/deadline); the accepted jobs' p99 stays within a small
  // multiple of baseline because nothing ever waits behind more than one
  // job per worker.
  // -------------------------------------------------------------------------
  const std::size_t offered = bench::scaled(24);
  json.kv("offered_per_row", offered);
  json.key("rows").begin_array();
  std::printf("\n%-18s %8s %9s %9s %6s %9s %10s %10s\n", "policy", "offered",
              "accepted", "rejected", "shed", "deadline", "p99 ms", "p99/base");
  double p99_ratio_max = 0.0;
  std::uint64_t dropped_total = 0;
  for (const api::AdmissionPolicy policy :
       {api::AdmissionPolicy::kRejectWhenFull,
        api::AdmissionPolicy::kShedByDeadline}) {
    obs::Registry registry;
    api::EngineConfig cfg;
    cfg.workers = 2;
    cfg.max_queue_depth = 4;
    cfg.admission = policy;
    cfg.registry = &registry;
    api::Engine engine(cfg);
    engine.attach_model(setup.locator);
    auto session = engine.open_session();

    // Deadlines only matter to the shed policy (its eviction order); give
    // each job a generous, staggered one so accepted jobs always finish in
    // time and the drop counts stay attributable to admission, not luck.
    const auto now = std::chrono::steady_clock::now();
    const auto slot = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::duration<double>(std::max(baseline_p99_s, 1e-3)));

    struct Pending {
      std::future<std::vector<std::size_t>> future;
      std::size_t trace;
    };
    std::vector<Pending> pending;
    pending.reserve(offered);
    std::size_t rejected_sync = 0;
    bench::Timer wall;
    for (std::size_t j = 0; j < offered; ++j) {
      api::SubmitOptions options;
      if (policy == api::AdmissionPolicy::kShedByDeadline)
        options.deadline = now + slot * (8 + j);
      try {
        pending.push_back(
            {session.submit_view(traces[j % n_traces].samples, options),
             j % n_traces});
      } catch (const api::Overloaded&) {
        ++rejected_sync;
      }
    }
    std::size_t accepted = 0, shed = 0, deadline_exceeded = 0, mismatches = 0;
    for (auto& p : pending) {
      try {
        if (p.future.get() != reference[p.trace]) ++mismatches;
        ++accepted;
      } catch (const api::Overloaded&) {
        ++shed;
      } catch (const api::DeadlineExceeded&) {
        ++deadline_exceeded;
      }
    }
    const double elapsed = wall.seconds();
    // Resolved futures prove the results; drain() waits for the worker-side
    // accounting so the embedded metrics snapshot reconciles exactly. The
    // latency histogram holds the jobs that ran: the accepted ones.
    session.drain();
    const auto s = bench::summarize_latencies(
        session.metrics().latency_ns->snapshot(), elapsed);
    const double ratio =
        baseline_p99_s > 0.0 ? (s.p99_ms / 1e3) / baseline_p99_s : 0.0;
    p99_ratio_max = std::max(p99_ratio_max, ratio);
    dropped_total += rejected_sync + shed + deadline_exceeded;

    std::printf("%-18s %8zu %9zu %9zu %6zu %9zu %10.1f %9.2fx", policy_name(policy),
                offered, accepted, rejected_sync, shed,
                deadline_exceeded, s.p99_ms, ratio);
    if (mismatches > 0) std::printf("  [%zu MISMATCHED]", mismatches);
    std::printf("\n");

    json.begin_object();
    json.kv("policy", policy_name(policy));
    json.kv("offered", offered);
    json.kv("accepted", accepted);
    json.kv("rejected_sync", rejected_sync);
    json.kv("shed", shed);
    json.kv("deadline_exceeded", deadline_exceeded);
    json.kv("mismatches", mismatches);
    json.kv("p99_ratio", ratio);
    json.kv("goodput_per_s", s.throughput_per_s);
    json.key("latency");
    bench::summary_to_json(json, s);
    json.key("metrics");
    registry.render_json_into(json);
    json.end_object();
  }
  json.end_array();
  json.kv("p99_ratio_max", p99_ratio_max);
  json.kv("dropped_total", dropped_total);

  // -------------------------------------------------------------------------
  // Faults: every worker throw is injected, typed, retried, and accounted
  // for — no accepted request is lost and none comes back wrong.
  // -------------------------------------------------------------------------
  {
    auto& injector = runtime::FaultInjector::instance();
    injector.reset();
    obs::Registry registry;
    api::Engine engine({.workers = 2, .registry = &registry});
    engine.attach_model(setup.locator);
    auto session = engine.open_session();

    const std::size_t fault_jobs = bench::scaled(8);
    runtime::FaultSpec spec;
    spec.action = runtime::FaultSpec::Action::kThrow;
    spec.times = 3;
    injector.arm("engine.camellia.job", spec);

    api::RetryConfig retry;
    retry.max_attempts = 5;
    retry.initial_backoff = std::chrono::milliseconds(1);
    retry.jitter_seed = 42;
    retry.registry = &registry;

    std::size_t failed = 0, parity_failures = 0;
    for (std::size_t j = 0; j < fault_jobs; ++j) {
      try {
        const auto starts = api::with_retry(
            [&] { return session.submit_view(traces[j % n_traces].samples).get(); },
            retry);
        if (starts != reference[j % n_traces]) ++parity_failures;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "fault job %zu failed: %s\n", j, e.what());
        ++failed;
      }
    }
    session.drain();
    const std::uint64_t injected = injector.injected("engine.camellia.job");
    const std::uint64_t retries = registry.counter("api.retries").value();
    injector.reset();

    std::printf(
        "\nfaults: %zu jobs, %llu injected throws, %llu retries, "
        "%zu failed, %zu parity failures\n",
        fault_jobs, static_cast<unsigned long long>(injected),
        static_cast<unsigned long long>(retries), failed, parity_failures);

    json.key("faults").begin_object();
    json.kv("jobs", fault_jobs);
    json.kv("injected", injected);
    json.kv("retries", retries);
    json.kv("retries_minus_injected",
            static_cast<double>(retries) - static_cast<double>(injected));
    json.kv("failed", failed);
    json.kv("parity_failures", parity_failures);
    json.key("metrics");
    registry.render_json_into(json);
    json.end_object();
  }

  // -------------------------------------------------------------------------
  // Watchdog: warm the rolling p99 with small fast jobs, then stall one.
  // -------------------------------------------------------------------------
  {
    auto& injector = runtime::FaultInjector::instance();
    obs::Registry registry;
    api::EngineConfig cfg;
    cfg.workers = 2;
    cfg.watchdog_p99_multiple = 4.0;
    cfg.watchdog_min_samples = 12;
    cfg.registry = &registry;
    api::Engine engine(cfg);
    engine.attach_model(setup.locator);
    auto session = engine.open_session();

    // Fixed 16 warmup jobs (not scaled: must exceed watchdog_min_samples
    // even at smoke scale) on a small slice so the p99 baseline is tight.
    const std::span<const float> probe(traces.front().samples);
    const std::size_t slice = std::min<std::size_t>(16384, probe.size());
    for (std::size_t j = 0; j < 16; ++j)
      session.submit_view(probe.subspan(0, slice)).get();

    runtime::FaultSpec spec;
    spec.action = runtime::FaultSpec::Action::kStall;
    spec.stall = std::chrono::milliseconds(600);
    spec.times = 1;
    injector.arm("engine.camellia.job", spec);
    session.submit_view(probe.subspan(0, slice)).get();
    session.drain();
    injector.reset();

    const std::uint64_t trips =
        registry.counter("engine.camellia.watchdog_trips").value();
    std::printf("watchdog: %llu trip(s) after a 600 ms injected stall\n",
                static_cast<unsigned long long>(trips));

    json.key("watchdog").begin_object();
    json.kv("warmup_jobs", static_cast<std::uint64_t>(16));
    json.kv("stall_ms", static_cast<std::uint64_t>(600));
    json.kv("trips", trips);
    json.key("metrics");
    registry.render_json_into(json);
    json.end_object();
  }

  json.end_object();
  bench::write_bench_json("overload", json);
  return 0;
}
