// LocatorService: concurrent CO localization over one shared model, with a
// failure model attached.
//
// Accepts whole-trace locate jobs and multiplexes them across a ThreadPool.
// All workers share the service's trained CoLocator — the nn refactor made
// eval-mode forward passes const, so the model is never copied — while each
// worker owns a private nn::Workspace holding its activation scratch.
// Results come back as futures; exceptions inside a job propagate through
// the future.
//
// Jobs pass through a service-local queue before they reach the pool: the
// service dispatches at most `max_concurrency` jobs into the shared pool at
// a time (its per-model running cap — on an api::Engine pool this is what
// keeps one hot cipher from starving every other registered model), and
// everything else waits in the local queue where the failure policies can
// see it:
//
//   - deadlines (SubmitOptions::deadline / timeout): a job whose deadline
//     passes while it queues is rejected cheaply — its future throws
//     DeadlineExceeded before the job ever wastes a worker;
//   - admission control (ServiceConfig::admission): at max_queue_depth the
//     service either blocks the submitter (kBlock, the legacy default),
//     fails fast with a synchronous Overloaded throw (kRejectWhenFull), or
//     sheds the queued job least likely to meet its deadline to make room
//     (kShedByDeadline — the victim's future throws Overloaded);
//   - a watchdog (ServiceConfig::watchdog_p99_multiple): running jobs that
//     exceed a wall-clock multiple of the service's rolling p99 runtime
//     are flagged (watchdog_trips) — the signal that distinguishes a stuck
//     worker from a merely slow one.
//
// The service either owns its pool (standalone use) or runs over an
// external one, which is how api::Engine serves several models (one per
// cipher) from a single shared worker pool. Direct construction is the
// low-level path; new code should go through api::Engine / api::Session,
// which add model registry, artifact loading, and streaming on top.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/locator.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "runtime/thread_pool.hpp"

namespace scalocate::runtime {

/// What submit* does when the service is at max_queue_depth.
enum class AdmissionPolicy {
  /// Block the submitter until a slot frees (backpressure; the default and
  /// the pre-failure-model behavior). A blocked submit with a deadline
  /// gives up when the deadline passes (future throws DeadlineExceeded).
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

/// Per-job failure-model knobs, shared by every submit* flavor.
struct SubmitOptions {
  /// Absolute deadline. A job that has not COMPLETED by this point fails
  /// with DeadlineExceeded: immediately at submit when already past,
  /// cheaply at dispatch when it expires in the queue, or via the blocked
  /// submitter waking up (kBlock). A job already running is never aborted
  /// mid-flight (results stay bit-identical); its caller simply sees the
  /// result late.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Relative form of the same thing: resolved to now() + timeout at
  /// submit. When both are set the earlier one wins.
  std::optional<std::chrono::nanoseconds> timeout;
};

struct ServiceConfig {
  /// Worker threads. 0 = hardware concurrency (at least 1). Ignored when
  /// the service is constructed over an external pool.
  std::size_t workers = 0;
  /// Upper bound on in-flight jobs (queued + running) for this service.
  /// What happens at the bound is `admission`'s call. 0 = unbounded.
  std::size_t max_queue_depth = 0;
  /// Behavior at max_queue_depth. kBlock preserves the pre-failure-model
  /// blocking backpressure exactly.
  AdmissionPolicy admission = AdmissionPolicy::kBlock;
  /// Per-service cap on jobs RUNNING in the pool at once. 0 = the pool's
  /// worker count. On a shared (Engine) pool, set this below the worker
  /// count to guarantee headroom for other models (per-model concurrency
  /// limit).
  std::size_t max_concurrency = 0;
  /// Intra-op thread budget for the kernels inside each job (see
  /// nn/kernels/parallel.hpp): how many compute-pool threads ONE job's
  /// GEMM/conv calls may fan out across. Default 1 — a service saturated
  /// with many small jobs already uses every core via `workers`, and
  /// nested fan-out would oversubscribe the box. Raise it (or set 0 =
  /// process default / SCALOCATE_THREADS) when the workload is a few big
  /// traces and per-job latency matters more than aggregate throughput.
  /// Results are bit-identical at every setting.
  std::size_t intra_op_threads = 1;
  /// Watchdog: flag a running job once its wall clock exceeds this
  /// multiple of the service's rolling p99 job runtime (watchdog_trips
  /// counter). 0 = off (default). The watchdog only observes — it never
  /// kills a job — and stays quiet until `watchdog_min_samples` jobs have
  /// completed, so the p99 means something.
  double watchdog_p99_multiple = 0.0;
  std::size_t watchdog_min_samples = 32;
  /// How often the watchdog thread scans running jobs.
  std::chrono::milliseconds watchdog_poll{20};
  /// Telemetry sink. When set, the service registers per-service
  /// instruments under `metric_prefix` and records request counts, queue
  /// depth, queue-wait and end-to-end latency, cancellations, backpressure
  /// blocks, rejects, sheds, deadline misses and watchdog trips. Null =
  /// telemetry off, zero overhead. The registry must outlive the service.
  obs::Registry* registry = nullptr;
  /// Instrument name prefix, e.g. "engine.aes128" (default "service").
  /// Also names this service's fault-injection site "<prefix>.job".
  std::string metric_prefix{};
};

/// Resolved per-service instrument set (see README "Observability" for the
/// naming scheme). All pointers are either all set or all null.
struct ServiceMetrics {
  obs::Counter* requests = nullptr;       ///< every submit* call
  obs::Counter* completed = nullptr;      ///< accepted jobs finished (any outcome)
  obs::Counter* cancelled = nullptr;      ///< jobs cancelled before running
  obs::Counter* backpressure_blocks = nullptr;  ///< submits that had to wait
  obs::Counter* rejected = nullptr;       ///< submits refused at admission
  obs::Counter* shed = nullptr;           ///< queued jobs evicted to make room
  obs::Counter* deadline_exceeded = nullptr;  ///< jobs failed by deadline
  obs::Counter* watchdog_trips = nullptr;     ///< running jobs flagged stuck
  obs::Gauge* queue_depth = nullptr;      ///< in-flight jobs (queued+running)
  obs::Histogram* queue_wait_ns = nullptr;  ///< enqueue -> job start
  obs::Histogram* latency_ns = nullptr;     ///< enqueue -> job end (e2e)

  bool enabled() const { return requests != nullptr; }
  /// Registers the instrument set under `prefix` in `registry`.
  static ServiceMetrics resolve(obs::Registry& registry,
                                const std::string& prefix);
};

class LocatorService {
 public:
  /// Shared flag a caller sets to abandon a job it no longer needs. The
  /// flag is checked when the job is dispatched: a job cancelled before it
  /// starts never runs and its future throws scalocate::Cancelled. A job
  /// already running completes normally (cancel is then a no-op).
  using CancelFlag = std::shared_ptr<std::atomic<bool>>;

  /// `locator` must be trained and outlive the service. Owns its pool.
  explicit LocatorService(const core::CoLocator& locator,
                          ServiceConfig config = {});

  /// Runs over `pool`, which must outlive the service (api::Engine shares
  /// one pool across every registered model this way).
  LocatorService(const core::CoLocator& locator, ThreadPool& pool,
                 ServiceConfig config = {});

  ~LocatorService();  ///< Blocks until in-flight jobs finish.

  LocatorService(const LocatorService&) = delete;
  LocatorService& operator=(const LocatorService&) = delete;

  /// Enqueues a locate job; the trace is moved into the job. At
  /// max_queue_depth the admission policy decides: blocks (kBlock), throws
  /// Overloaded (kRejectWhenFull), or sheds (kShedByDeadline — may also
  /// throw Overloaded when the incoming job is the victim). Deadline and
  /// shed failures of an ACCEPTED job surface through the future.
  std::future<std::vector<std::size_t>> submit(std::vector<float> trace,
                                               CancelFlag cancel = nullptr,
                                               SubmitOptions options = {});

  /// Enqueues a locate job over caller-owned samples. The caller must keep
  /// the memory alive until the future resolves; no copy is made.
  std::future<std::vector<std::size_t>> submit_view(std::span<const float> trace,
                                                    CancelFlag cancel = nullptr,
                                                    SubmitOptions options = {});

  /// Like submit_view, but also reports the job's end-to-end latency
  /// (enqueue to completion, queueing included) — the number a serving
  /// deployment actually observes. The measurement is the same one the
  /// `latency_ns` histogram records when telemetry is on; this wrapper just
  /// additionally hands the per-job value back through the future.
  struct TimedResult {
    std::vector<std::size_t> starts;
    double latency_seconds = 0.0;
  };
  std::future<TimedResult> submit_timed(std::span<const float> trace,
                                        SubmitOptions options = {});

  /// The service's instrument set (all-null when constructed without a
  /// registry).
  const ServiceMetrics& metrics() const { return metrics_; }

  /// Blocks until every job accepted by THIS service has completed (on a
  /// shared pool, other services' jobs are not waited for).
  void drain();

  std::size_t worker_count() const { return pool_->worker_count(); }
  std::size_t max_queue_depth() const { return max_depth_; }
  std::size_t max_concurrency() const { return concurrency_cap_; }
  std::size_t intra_op_threads() const { return intra_op_threads_; }
  std::size_t jobs_completed() const { return completed_.load(); }
  std::size_t jobs_submitted() const { return submitted_.load(); }
  // Failure-model accounting, maintained with or without telemetry (the
  // obs counters mirror these when a registry is wired).
  std::size_t jobs_rejected() const { return rejected_.load(); }
  std::size_t jobs_shed() const { return shed_.load(); }
  std::size_t jobs_deadline_exceeded() const { return deadline_exceeded_.load(); }
  std::size_t watchdog_trips() const { return watchdog_trips_.load(); }

 private:
  /// One accepted job, queued locally until dispatch. `fail` routes a typed
  /// error into the job's promise without running it; `run` produces the
  /// result on a pool worker (and owns the promise).
  struct JobRec {
    std::function<void(std::size_t worker)> run;
    std::function<void(std::exception_ptr)> fail;
    std::chrono::steady_clock::time_point deadline;
    bool has_deadline = false;
    CancelFlag cancel;
    std::uint64_t enqueued_ns = 0;  ///< telemetry stamp (0 = telemetry off)
  };
  using JobPtr = std::shared_ptr<JobRec>;

  /// Resolves options.deadline/timeout into one absolute deadline.
  static std::optional<std::chrono::steady_clock::time_point> resolve_deadline(
      const SubmitOptions& options);

  /// Builds the JobRec (promise + type-erased run/fail) for a result type
  /// and body, then runs admission via enqueue(). Defined in the .cpp; all
  /// instantiations live there.
  template <typename R, typename Body>
  std::future<R> submit_impl(CancelFlag cancel, const SubmitOptions& options,
                             Body body);

  /// Admission + enqueue + dispatch for every submit flavor. May fail the
  /// job's promise with a typed error instead of queueing it
  /// (expired-at-submit, blocked-past-deadline), and throws Overloaded for
  /// synchronous admission rejections (kRejectWhenFull; kShedByDeadline
  /// when the incoming job is the victim).
  void enqueue(const JobPtr& job);

  /// Pops and dispatches queued jobs into the pool while below the
  /// concurrency cap; fails expired/cancelled jobs cheaply instead of
  /// dispatching them. Caller holds mutex_.
  void dispatch_locked();

  /// Evicts the queued job least likely to meet its deadline; returns true
  /// when a slot was freed. Caller holds mutex_.
  bool shed_one_locked(std::chrono::steady_clock::time_point incoming_deadline,
                       bool incoming_has_deadline);

  /// Terminal accounting for one accepted job. Caller holds mutex_.
  void finish_locked();

  /// Runs one dispatched job on a pool worker.
  void run_job(const JobPtr& job, std::size_t worker);

  void start_watchdog();
  void watchdog_loop();

  void record_queue_wait(std::uint64_t enqueued_ns) const {
    if (enqueued_ns != 0)
      metrics_.queue_wait_ns->record(obs::steady_now_ns() - enqueued_ns);
  }
  void record_latency(std::uint64_t enqueued_ns) const {
    if (enqueued_ns != 0)
      metrics_.latency_ns->record(obs::steady_now_ns() - enqueued_ns);
  }

  const core::CoLocator& locator_;
  std::unique_ptr<ThreadPool> owned_pool_;  ///< null when pool is external
  ThreadPool* pool_;
  std::vector<nn::Workspace> scratch_;  ///< one per worker, index-addressed
  std::size_t max_depth_ = 0;
  AdmissionPolicy admission_ = AdmissionPolicy::kBlock;
  std::size_t concurrency_cap_ = 0;   ///< resolved: >= 1
  std::size_t intra_op_threads_ = 1;  ///< kernel fan-out budget per job
  std::string fault_site_;            ///< "<metric_prefix>.job"

  std::mutex mutex_;
  std::condition_variable depth_cv_;    ///< a backpressure slot freed
  std::condition_variable drained_cv_;  ///< a job completed (drain watches)
  std::deque<JobPtr> queue_;   ///< accepted, not yet dispatched
  std::size_t in_flight_ = 0;  ///< queued + running (guarded by mutex_)
  std::size_t running_ = 0;    ///< dispatched into the pool (guarded)

  std::atomic<std::size_t> submitted_{0};
  std::atomic<std::size_t> completed_{0};
  std::atomic<std::size_t> rejected_{0};
  std::atomic<std::size_t> shed_{0};
  std::atomic<std::size_t> deadline_exceeded_{0};
  std::atomic<std::size_t> watchdog_trips_{0};

  // Watchdog state: per-worker start stamp + job serial of the running job
  // (0 = idle), an always-on runtime histogram feeding the rolling p99,
  // and the scanning thread (spawned only when the watchdog is enabled).
  obs::Histogram runtime_ns_;
  std::atomic<std::uint64_t> job_serial_{0};
  std::vector<std::atomic<std::uint64_t>> worker_start_ns_;
  std::vector<std::atomic<std::uint64_t>> worker_job_serial_;
  std::vector<std::uint64_t> worker_flagged_serial_;  ///< watchdog thread only
  double watchdog_multiple_ = 0.0;
  std::size_t watchdog_min_samples_ = 32;
  std::chrono::milliseconds watchdog_poll_{20};
  std::thread watchdog_;
  std::mutex watchdog_mutex_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;

  ServiceMetrics metrics_;  ///< all-null when telemetry is off
};

}  // namespace scalocate::runtime
