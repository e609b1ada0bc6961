// Engine/Session: the stable serving surface of scalocate.
//
// An Engine loads one or more model artifacts (or adopts in-process trained
// locators) into a cipher-keyed registry and runs every model over ONE
// shared ThreadPool — a single deployment can serve AES-128, Clefia and
// Camellia models side by side, with per-request model selection by cipher.
// A Session serves both workloads of one model:
//
//   session.submit(trace)      whole-trace jobs with admission control,
//                              deadlines and cancellation
//   session.open_stream()      push-based chunk ingestion with online
//                              Detection delivery via callback or poll
//
// Each registered model owns the executor of its whole-trace jobs: a local
// queue in front of the shared pool, where admission, deadlines,
// cancellation and the stuck-job watchdog act (README "Failure model").
//
// Lifetime: Sessions and Streams hold shared ownership of their model
// entry, so they stay valid even if the Engine replaces the model. The
// Engine (its pool) must outlive every job submitted through a Session; a
// Stream uses neither, and may outlive the Engine. All Session methods are
// safe to call from multiple threads against one Engine; a single Stream
// is single-threaded like the StreamingLocator it wraps.
#pragma once

#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/locator.hpp"
#include "obs/registry.hpp"
#include "runtime/streaming_locator.hpp"
#include "runtime/thread_pool.hpp"

namespace scalocate::api {

using runtime::Detection;
using runtime::StreamingConfig;

/// What submit does when a model is at max_queue_depth.
enum class AdmissionPolicy {
  /// Block the submitter until a slot frees (backpressure; the default). A
  /// blocked submit with a deadline gives up when the deadline passes
  /// (future throws DeadlineExceeded).
  kBlock,
  /// Fail fast: submit throws Overloaded synchronously. Nothing queues.
  kRejectWhenFull,
  /// Make room: evict the queued job least likely to meet its deadline
  /// (earliest deadline first; jobs without deadlines are evicted last).
  /// The victim's future throws Overloaded. When the incoming job itself
  /// has the tightest deadline — or nothing is queued to evict — the
  /// incoming job is the one shed (synchronous Overloaded throw).
  kShedByDeadline,
};

/// Per-job failure-model knobs.
struct SubmitOptions {
  /// Absolute deadline. A job that has not COMPLETED by this point fails
  /// with DeadlineExceeded: immediately at submit when already past,
  /// cheaply at dispatch when it expires in the queue, or via the blocked
  /// submitter waking up (kBlock). A job already running is never aborted
  /// mid-flight (results stay bit-identical); its caller simply sees the
  /// result late.
  std::optional<std::chrono::steady_clock::time_point> deadline{};
  /// Relative form of the same thing: resolved to now() + timeout at
  /// submit. When both are set the earlier one wins.
  std::optional<std::chrono::nanoseconds> timeout{};
  /// Flag the caller sets to abandon the job. It is checked when the job is
  /// dispatched and again when it starts: a job cancelled before it starts
  /// never runs and its future throws scalocate::Cancelled. A job already
  /// running completes normally (cancelling is then a no-op).
  std::shared_ptr<std::atomic<bool>> cancel{};
};

struct EngineConfig {
  /// Worker threads of the shared pool. 0 = hardware concurrency.
  std::size_t workers = 0;
  /// Per-model bound on in-flight whole-trace jobs (queued + running).
  /// What happens at the bound is `admission`'s call. 0 = unbounded.
  std::size_t max_queue_depth = 0;
  /// Behavior at max_queue_depth, applied per model (see AdmissionPolicy
  /// and README "Failure model").
  AdmissionPolicy admission = AdmissionPolicy::kBlock;
  /// Watchdog: flag (never kill) a running job once its wall clock exceeds
  /// this multiple of its model's rolling p99 runtime — the
  /// `watchdog_trips` counter distinguishes "stuck" from "slow". 0 = off.
  double watchdog_p99_multiple = 0.0;
  /// Completed jobs required before the watchdog trusts the p99 baseline.
  std::size_t watchdog_min_samples = 32;
  /// Intra-op threads per job (nn/kernels/parallel.hpp): how far one
  /// job's window scoring (the eval forward's split of its batch items)
  /// may fan out across the process compute pool. Default 1 = throughput mode (many concurrent jobs, one core
  /// each — the `workers` knob is the parallelism). Set >1 (or 0 for the
  /// process default / SCALOCATE_THREADS) for latency mode: few big
  /// traces, each saturating the machine. Detections are bit-identical
  /// at every setting, so the trade is purely throughput vs latency.
  std::size_t intra_op_threads = 1;
  /// Telemetry sink. Every registered model publishes `engine.<model>.*`
  /// job instruments and `stream.<model>.*` stream instruments into it,
  /// and the shared pool `pool.queue_depth` and `pool.tasks` (README
  /// "Observability"). Null = the Engine keeps a private registry, which
  /// lives as long as the Engine or any Stream opened through it. A
  /// registry passed here must outlive both. Pass
  /// &obs::Registry::global() to publish into the process-wide registry.
  obs::Registry* registry = nullptr;
};

/// Instrument-name segment for a model: the cipher display name lowercased
/// with non-alphanumerics dropped ("AES" -> "aes", "Camellia" ->
/// "camellia").
std::string metric_model_name(crypto::CipherId cipher);

/// One model's job instruments, `engine.<model>.*` (README
/// "Observability"). Every pointer is set.
struct EngineMetrics {
  obs::Counter* requests = nullptr;   ///< every submit call
  obs::Counter* completed = nullptr;  ///< accepted jobs settled (any outcome)
  obs::Counter* cancelled = nullptr;  ///< jobs cancelled before running
  obs::Counter* backpressure_blocks = nullptr;  ///< submits that had to wait
  obs::Counter* rejected = nullptr;  ///< submits refused at admission
  obs::Counter* shed = nullptr;      ///< queued jobs evicted to make room
  obs::Counter* deadline_exceeded = nullptr;  ///< jobs failed by deadline
  obs::Counter* watchdog_trips = nullptr;     ///< running jobs flagged stuck
  obs::Gauge* queue_depth = nullptr;  ///< in-flight jobs (queued + running)
  obs::Histogram* queue_wait_ns = nullptr;  ///< enqueue -> job start
  obs::Histogram* latency_ns = nullptr;     ///< enqueue -> job end (e2e)
};

/// Registry row describing one served model.
struct ModelInfo {
  crypto::CipherId cipher = crypto::CipherId::kAes128;
  std::string display_name;
  std::size_t n_inf = 0;
  std::size_t stride = 0;
  std::ptrdiff_t calibration_offset = 0;
};

namespace detail {
/// One registered model and the executor of its jobs (engine.cpp).
class ModelEntry;
}  // namespace detail

/// Push-based chunk ingestion bound to one session's model: a
/// runtime::StreamingLocator that scores its windows inline, on the thread
/// that calls feed(). Detections are delivered online, exactly as the
/// offline pipeline would emit them: through the callback when one is
/// installed, otherwise returned from feed()/finish() (poll style). To
/// serve many streams, feed them from several threads; streams of one
/// model share its weights, each stages its own windows, and the scoring
/// scratch belongs to the feeding thread.
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
  /// engine's AdmissionPolicy decides: block (default), throw Overloaded
  /// (kRejectWhenFull), or shed (kShedByDeadline; may also throw Overloaded
  /// when the incoming job is the victim). Deadline, shed and cancellation
  /// failures of an ACCEPTED job surface through the future.
  std::future<std::vector<std::size_t>> submit(std::vector<float> trace,
                                               SubmitOptions options = {});

  /// Whole-trace job over caller-owned samples (kept alive by the caller
  /// until the future resolves; no copy is made).
  std::future<std::vector<std::size_t>> submit_view(
      std::span<const float> trace, SubmitOptions options = {});

  /// Opens a push-based stream over this session's model.
  Stream open_stream(StreamingConfig config = {}) const;

  const core::CoLocator& locator() const;
  crypto::CipherId cipher() const;

  /// This model's job instruments. Job latency is `latency_ns` (enqueue to
  /// end, queueing included).
  const EngineMetrics& metrics() const;

  /// Blocks until every job submitted to this session's model so far has
  /// fully settled. A resolved future only proves the job's RESULT is
  /// ready; the accounting (completed count, queue_depth back to zero)
  /// lands moments later on the worker thread — call this before reading
  /// metrics() or a registry snapshot that must reconcile exactly.
  void drain();

 private:
  friend class Engine;
  explicit Session(std::shared_ptr<detail::ModelEntry> entry)
      : entry_(std::move(entry)) {}

  std::shared_ptr<detail::ModelEntry> entry_;
};

class Engine {
 public:
  explicit Engine(EngineConfig config = {});
  ~Engine();  ///< Drains every registered model's in-flight jobs.

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

  /// Snapshots of the engine's telemetry registry.
  std::string telemetry_text() const;
  std::string telemetry_json() const;

 private:
  crypto::CipherId register_model(
      std::shared_ptr<const core::CoLocator> locator);

  EngineConfig config_;
  /// The telemetry sink, shared with every entry (owning when private).
  /// Declared before the pool, whose instruments it holds.
  std::shared_ptr<obs::Registry> registry_;
  runtime::ThreadPool pool_;  ///< declared before the entries: they drain
                              ///< against it on teardown
  mutable std::mutex mutex_;
  std::map<crypto::CipherId, std::shared_ptr<detail::ModelEntry>> models_;
};

}  // namespace scalocate::api
