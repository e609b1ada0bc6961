// Engine/Session: the stable serving surface of scalocate.
//
// An Engine loads one or more model artifacts (or adopts in-process trained
// locators) into a cipher-keyed registry and runs every model over ONE
// shared ThreadPool — a single deployment can serve AES-128, Clefia and
// Camellia models side by side, with per-request model selection by cipher.
// Sessions unify the two workloads that used to be two unrelated classes:
//
//   session.submit(trace)      whole-trace jobs with bounded-queue
//                              backpressure and cancellation
//                              (was CoLocator::locate / LocatorService)
//   session.open_stream()      push-based chunk ingestion with online
//                              Detection delivery via callback or poll
//                              (was StreamingLocator)
//
// Lifetime: Sessions, Streams and Jobs hold shared ownership of their model
// entry, so they stay valid even if the Engine replaces the model — but the
// Engine itself (its pool) must outlive every Session/Job. All Session
// methods are safe to call from multiple threads against one Engine;
// a single Stream is single-threaded like the StreamingLocator it wraps.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/locator.hpp"
#include "obs/registry.hpp"
#include "runtime/locator_service.hpp"
#include "runtime/streaming_locator.hpp"

namespace scalocate::api {

using runtime::AdmissionPolicy;
using runtime::Detection;
using runtime::StreamingConfig;
using runtime::SubmitOptions;

struct EngineConfig {
  /// Worker threads of the shared pool. 0 = hardware concurrency.
  std::size_t workers = 0;
  /// Per-model bound on in-flight whole-trace jobs. What happens at the
  /// bound is `admission`'s call (default: submit blocks — backpressure).
  /// 0 = unbounded.
  std::size_t max_queue_depth = 0;
  /// Behavior at max_queue_depth, applied per model: kBlock (default,
  /// today's behavior), kRejectWhenFull (submit throws Overloaded), or
  /// kShedByDeadline (evict the queued job least likely to meet its
  /// deadline). See runtime::AdmissionPolicy and README "Failure model".
  AdmissionPolicy admission = AdmissionPolicy::kBlock;
  /// Per-model cap on jobs RUNNING in the shared pool at once. 0 = the
  /// pool's worker count. Set below `workers` so one hot cipher cannot
  /// starve every other registered model of workers.
  std::size_t max_concurrency = 0;
  /// Watchdog: flag (never kill) a running job once its wall clock exceeds
  /// this multiple of its model's rolling p99 runtime — the
  /// `watchdog_trips` counter distinguishes "stuck" from "slow". 0 = off.
  double watchdog_p99_multiple = 0.0;
  /// Completed jobs required before the watchdog trusts the p99 baseline.
  std::size_t watchdog_min_samples = 32;
  /// Intra-op kernel threads per job (nn/kernels/parallel.hpp): how far
  /// one job's GEMM/conv calls may fan out across the process compute
  /// pool. Default 1 = throughput mode (many concurrent jobs, one core
  /// each — the `workers` knob is the parallelism). Set >1 (or 0 for the
  /// process default / SCALOCATE_THREADS) for latency mode: few big
  /// traces, each saturating the machine. Detections are bit-identical
  /// at every setting, so the trade is purely throughput vs latency.
  std::size_t intra_op_threads = 1;
  /// Telemetry sink (must outlive the Engine). When set, every registered
  /// model gets per-model instruments — `engine.<model>.requests`,
  /// `.queue_depth`, `.queue_wait_ns`, `.latency_ns`, `.cancelled`,
  /// `.backpressure_blocks` — and every stream opened through a Session
  /// gets `stream.<model>.samples_fed` / `.windows_scored` / `.detections`
  /// / `.corrupt_samples` / `.emission_lag_samples`; the shared pool
  /// reports `pool.queue_depth` and `pool.tasks`. Null = telemetry off
  /// (zero overhead and no behavior change either way). Pass
  /// &obs::Registry::global() to publish into the process-wide registry.
  obs::Registry* registry = nullptr;
};

/// Instrument-name segment for a model: the cipher display name lowercased
/// with non-alphanumerics dropped ("AES-128" -> "aes128").
std::string metric_model_name(crypto::CipherId cipher);

/// Registry row describing one served model.
struct ModelInfo {
  crypto::CipherId cipher = crypto::CipherId::kAes128;
  std::string display_name;
  std::size_t n_inf = 0;
  std::size_t stride = 0;
  std::ptrdiff_t calibration_offset = 0;
};

namespace detail {
/// One registered model: the locator (owned or borrowed) plus its executor
/// over the engine's shared pool. Sessions share ownership of the entry.
/// `registry`/`stream_prefix` carry the engine's telemetry wiring to
/// streams opened later through a Session.
struct ModelEntry {
  ModelEntry(core::CoLocator&& loc, runtime::ThreadPool& pool,
             runtime::ServiceConfig cfg)
      : owned(std::move(loc)),
        locator(&*owned),
        registry(cfg.registry),
        service(*locator, pool, std::move(cfg)) {}
  ModelEntry(const core::CoLocator& loc, runtime::ThreadPool& pool,
             runtime::ServiceConfig cfg)
      : locator(&loc), registry(cfg.registry), service(loc, pool, std::move(cfg)) {}

  std::optional<core::CoLocator> owned;
  const core::CoLocator* locator;
  obs::Registry* registry = nullptr;  ///< null = telemetry off
  std::string stream_prefix;          ///< e.g. "stream.aes128"
  runtime::LocatorService service;
};
}  // namespace detail

/// A cancellable whole-trace job. Move-only handle over the job's future
/// and cancel flag.
class Job {
 public:
  /// Requests cancellation. A job not yet started never runs and get()
  /// throws scalocate::Cancelled; a job already running completes normally.
  void cancel() { flag_->store(true); }
  bool cancel_requested() const { return flag_->load(); }

  /// Blocks for the result (rethrows the job's exception, if any).
  std::vector<std::size_t> get() { return future_.get(); }
  std::future<std::vector<std::size_t>>& future() { return future_; }

 private:
  friend class Session;
  Job(runtime::LocatorService::CancelFlag flag,
      std::future<std::vector<std::size_t>> future)
      : flag_(std::move(flag)), future_(std::move(future)) {}

  runtime::LocatorService::CancelFlag flag_;
  std::future<std::vector<std::size_t>> future_;
};

/// Push-based chunk ingestion bound to one session's model: a
/// runtime::StreamingLocator that scores its windows inline, on the thread
/// that calls feed(). Detections are delivered online, exactly as the
/// offline pipeline would emit them: through the callback when one is
/// installed, otherwise returned from feed()/finish() (poll style). To
/// serve many streams, feed them from several threads; streams of one
/// model share its weights and own their scratch.
class Stream {
 public:
  using Callback = std::function<void(const Detection&)>;

  /// Installs push delivery; feed()/finish() then return empty vectors.
  /// If the callback throws, delivery stops and the exception propagates;
  /// the detection being handled and every later one stay queued and are
  /// redelivered (at-least-once) by the next feed()/finish().
  void on_detection(Callback callback) { callback_ = std::move(callback); }

  std::vector<Detection> feed(std::span<const float> chunk);
  std::vector<Detection> finish();
  void reset();

  std::size_t samples_consumed() const {
    return streaming_->samples_consumed();
  }
  std::size_t resident_samples() const {
    return streaming_->resident_samples();
  }
  float threshold() const { return streaming_->threshold(); }
  std::size_t median_k() const { return streaming_->median_k(); }

 private:
  friend class Session;
  Stream(std::shared_ptr<detail::ModelEntry> entry, StreamingConfig config);

  /// Hands queued detections to the callback (or returns them when none is
  /// installed). A detection leaves the queue only after its callback
  /// invocation returned, so a throw loses nothing.
  std::vector<Detection> deliver();

  std::shared_ptr<detail::ModelEntry> entry_;  ///< keeps the model alive
  std::unique_ptr<runtime::StreamingLocator> streaming_;
  std::deque<Detection> pending_;  ///< finalized but not yet delivered
  Callback callback_;
};

/// Handle to one served model; cheap to copy, safe to share across threads.
class Session {
 public:
  /// Whole-trace job; the trace is moved in. At max_queue_depth the
  /// engine's AdmissionPolicy decides (default: block — backpressure).
  /// `options` carries the per-job failure-model knobs: a deadline or
  /// timeout after which the job fails with DeadlineExceeded instead of
  /// occupying a worker (see runtime::SubmitOptions).
  std::future<std::vector<std::size_t>> submit(std::vector<float> trace,
                                               SubmitOptions options = {});

  /// Whole-trace job over caller-owned samples (kept alive by the caller
  /// until the future resolves).
  std::future<std::vector<std::size_t>> submit_view(
      std::span<const float> trace, SubmitOptions options = {});

  /// Whole-trace job with a cancellation handle.
  Job submit_job(std::vector<float> trace, SubmitOptions options = {});

  using TimedResult = runtime::LocatorService::TimedResult;
  std::future<TimedResult> submit_timed(std::span<const float> trace,
                                        SubmitOptions options = {});

  /// Opens a push-based stream over this session's model.
  Stream open_stream(StreamingConfig config = {}) const;

  const core::CoLocator& locator() const { return *entry_->locator; }
  crypto::CipherId cipher() const {
    return entry_->locator->config().params.cipher;
  }

  /// This model's serving instruments (all-null when the engine was built
  /// without a telemetry registry).
  const runtime::ServiceMetrics& metrics() const {
    return entry_->service.metrics();
  }

  /// Blocks until every job submitted to this session's model so far has
  /// fully settled. A resolved future only proves the job's RESULT is
  /// ready; the service's accounting (completed count, queue_depth back to
  /// zero) lands moments later on the worker thread — call this before
  /// reading metrics() or a registry snapshot that must reconcile exactly.
  void drain() { entry_->service.drain(); }

 private:
  friend class Engine;
  explicit Session(std::shared_ptr<detail::ModelEntry> entry)
      : entry_(std::move(entry)) {}

  std::shared_ptr<detail::ModelEntry> entry_;
};

class Engine {
 public:
  explicit Engine(EngineConfig config = {});
  ~Engine();  ///< Drains every model's in-flight jobs.

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Loads a versioned artifact (api/artifact) and registers the model
  /// under its cipher id, replacing any previous model for that cipher.
  /// Existing sessions keep serving the replaced model. Returns the cipher
  /// key for open_session().
  crypto::CipherId load_artifact(const std::string& path);

  /// Adopts an in-process trained locator (e.g. straight after train()).
  crypto::CipherId add_model(core::CoLocator&& locator);

  /// Serves a borrowed trained locator; the caller keeps ownership and must
  /// keep it alive for the engine's lifetime.
  crypto::CipherId attach_model(const core::CoLocator& locator);

  /// Opens a session bound to the model registered for `cipher`; throws
  /// InvalidArgument when none is registered.
  Session open_session(crypto::CipherId cipher) const;

  /// Convenience for single-model engines; throws unless exactly one model
  /// is registered.
  Session open_session() const;

  bool has_model(crypto::CipherId cipher) const;
  std::vector<ModelInfo> models() const;
  std::size_t worker_count() const { return pool_.worker_count(); }

  /// The telemetry registry this engine publishes into (null = off).
  obs::Registry* metrics_registry() const { return config_.registry; }
  /// Convenience snapshots of that registry; empty-document/placeholder
  /// output when telemetry is off.
  std::string telemetry_text() const;
  std::string telemetry_json() const;

 private:
  crypto::CipherId register_entry(std::shared_ptr<detail::ModelEntry> entry);
  runtime::ServiceConfig service_config(crypto::CipherId cipher) const;

  EngineConfig config_;
  runtime::ThreadPool pool_;  ///< declared before the registry: entries
                              ///< (services) drain against it on teardown
  mutable std::mutex mutex_;
  std::map<crypto::CipherId, std::shared_ptr<detail::ModelEntry>> registry_;
};

}  // namespace scalocate::api
