#include "api/engine.hpp"

#include <algorithm>
#include <cctype>
#include <condition_variable>
#include <thread>
#include <utility>

#include "api/artifact.hpp"
#include "common/error.hpp"
#include "nn/kernels/parallel.hpp"
#include "runtime/fault_injector.hpp"

namespace scalocate::api {

namespace {

using Clock = std::chrono::steady_clock;

/// How often the watchdog scans the running jobs.
constexpr std::chrono::milliseconds kWatchdogPoll{20};

/// A shared_ptr that points at `object` but owns nothing, so borrowed
/// objects (an attached locator, the caller's registry) fill the same slots
/// as owned ones.
template <typename T>
std::shared_ptr<T> borrow(T& object) {
  return std::shared_ptr<T>(std::shared_ptr<void>(), &object);
}

/// Resolves options.deadline/timeout into one absolute deadline
/// (time_point::max() = none).
Clock::time_point resolve_deadline(const SubmitOptions& options) {
  Clock::time_point deadline =
      options.deadline.value_or(Clock::time_point::max());
  if (options.timeout)
    deadline = std::min(deadline, Clock::now() + *options.timeout);
  return deadline;
}

/// Registers a model's job instruments under `prefix` in `registry`.
EngineMetrics resolve_metrics(obs::Registry& registry,
                              const std::string& prefix) {
  EngineMetrics m;
  m.requests = &registry.counter(prefix + ".requests");
  m.completed = &registry.counter(prefix + ".completed");
  m.cancelled = &registry.counter(prefix + ".cancelled");
  m.backpressure_blocks = &registry.counter(prefix + ".backpressure_blocks");
  m.rejected = &registry.counter(prefix + ".rejected");
  m.shed = &registry.counter(prefix + ".shed");
  m.deadline_exceeded = &registry.counter(prefix + ".deadline_exceeded");
  m.watchdog_trips = &registry.counter(prefix + ".watchdog_trips");
  m.queue_depth = &registry.gauge(prefix + ".queue_depth");
  m.queue_wait_ns = &registry.histogram(prefix + ".queue_wait_ns");
  m.latency_ns = &registry.histogram(prefix + ".latency_ns");
  return m;
}

}  // namespace

// ---------------------------------------------------------------------------
// ModelEntry: one model and the executor of its whole-trace jobs
// ---------------------------------------------------------------------------

namespace detail {

/// Jobs pass through the entry's local queue before they reach the shared
/// pool. At most pool.worker_count() jobs of one model run at a time;
/// everything else waits in the local queue, where the failure policies
/// can see it: expired and cancelled jobs fail there without occupying a
/// worker, and kShedByDeadline picks its victims there. All workers share
/// the read-only locator; each pool worker owns a private nn::Workspace.
class ModelEntry {
 public:
  ModelEntry(std::shared_ptr<const core::CoLocator> locator,
             const std::string& model_name,
             std::shared_ptr<obs::Registry> registry, runtime::ThreadPool& pool,
             const EngineConfig& config)
      : locator_(std::move(locator)),
        registry_(std::move(registry)),
        pool_(pool),
        max_depth_(config.max_queue_depth),
        admission_(config.admission),
        intra_op_threads_(config.intra_op_threads),
        fault_site_("engine." + model_name + ".job"),
        metrics_(resolve_metrics(*registry_, "engine." + model_name)),
        stream_metrics_(runtime::StreamMetrics::resolve(
            *registry_, "stream." + model_name)),
        scratch_(pool.worker_count()),
        watchdog_multiple_(config.watchdog_p99_multiple),
        watchdog_min_samples_(config.watchdog_min_samples),
        worker_start_ns_(pool.worker_count()),
        worker_job_serial_(pool.worker_count()),
        worker_flagged_serial_(pool.worker_count(), 0) {
    if (watchdog_multiple_ > 0.0)
      watchdog_ = std::thread([this] { watchdog_loop(); });
  }

  ~ModelEntry() {  // Blocks until in-flight jobs finish.
    drain();
    if (watchdog_.joinable()) {
      {
        std::lock_guard<std::mutex> lock(watchdog_mutex_);
        watchdog_stop_ = true;
      }
      watchdog_cv_.notify_all();
      watchdog_.join();
    }
  }

  ModelEntry(const ModelEntry&) = delete;
  ModelEntry& operator=(const ModelEntry&) = delete;

  const core::CoLocator& locator() const { return *locator_; }
  const EngineMetrics& metrics() const { return metrics_; }
  const runtime::StreamMetrics& stream_metrics() const {
    return stream_metrics_;
  }

  /// Admits a locate job over `owned` when it is not empty, else over the
  /// caller-owned `view`. Deadline, shed and cancellation failures of an
  /// accepted job surface through the future; synchronous admission
  /// rejections throw Overloaded.
  std::future<std::vector<std::size_t>> submit(std::vector<float> owned,
                                               std::span<const float> view,
                                               const SubmitOptions& options) {
    auto job = std::make_shared<Job>();
    job->owned = std::move(owned);
    job->trace = job->owned.empty() ? view : std::span<const float>(job->owned);
    job->deadline = resolve_deadline(options);
    job->cancel = options.cancel;
    job->enqueued_ns = obs::steady_now_ns();
    std::future<std::vector<std::size_t>> future = job->promise.get_future();
    admit(job);
    return future;
  }

  /// Blocks until every accepted job has settled. Every accepted job
  /// reaches finish_locked() exactly once (run, shed, cancelled or
  /// expired), so the wait always ends.
  void drain() {
    std::unique_lock<std::mutex> lock(mutex_);
    drained_cv_.wait(lock, [this] { return in_flight_ == 0; });
  }

 private:
  /// One job, accepted or not yet admitted.
  struct Job {
    std::vector<float> owned;  ///< the samples of an owning submit
    std::span<const float> trace;
    std::promise<std::vector<std::size_t>> promise;
    Clock::time_point deadline = Clock::time_point::max();
    std::shared_ptr<std::atomic<bool>> cancel;
    std::uint64_t enqueued_ns = 0;

    bool has_deadline() const { return deadline != Clock::time_point::max(); }
    bool expired() const { return has_deadline() && Clock::now() >= deadline; }
    bool cancelled() const { return cancel && cancel->load(); }
    template <typename E>
    void fail(const char* what) {
      promise.set_exception(std::make_exception_ptr(E(what)));
    }
  };
  using JobPtr = std::shared_ptr<Job>;

  /// Admission control, then enqueue and dispatch. May fail the job's
  /// promise instead of queueing it (expired at submit, deadline passed
  /// while blocked), and throws Overloaded for synchronous rejections
  /// (kRejectWhenFull; kShedByDeadline when the incoming job is the
  /// victim).
  void admit(const JobPtr& job) {
    metrics_.requests->add();

    // An already-passed deadline is refused before any queueing, and
    // counted as a rejection.
    if (job->expired()) {
      metrics_.rejected->add();
      metrics_.deadline_exceeded->add();
      job->fail<DeadlineExceeded>(
          "locate job deadline already passed at submit");
      return;
    }

    std::unique_lock<std::mutex> lock(mutex_);
    if (max_depth_ > 0 && in_flight_ >= max_depth_) {
      switch (admission_) {
        case AdmissionPolicy::kBlock: {
          metrics_.backpressure_blocks->add();
          const auto slot_free = [this] { return in_flight_ < max_depth_; };
          if (!job->has_deadline()) {
            depth_cv_.wait(lock, slot_free);
          } else if (!depth_cv_.wait_until(lock, job->deadline, slot_free)) {
            metrics_.rejected->add();
            metrics_.deadline_exceeded->add();
            lock.unlock();
            job->fail<DeadlineExceeded>(
                "locate job deadline passed while blocked on backpressure");
            return;
          }
          break;
        }
        case AdmissionPolicy::kRejectWhenFull:
          metrics_.rejected->add();
          throw Overloaded("locate service at max_queue_depth (" +
                           std::to_string(max_depth_) +
                           " jobs in flight); admission policy rejects");
        case AdmissionPolicy::kShedByDeadline:
          if (!shed_one_locked(job->deadline)) {
            // Nothing queued to evict, or the incoming job itself is the
            // one least likely to meet its deadline: it is the victim.
            metrics_.rejected->add();
            throw Overloaded(
                "locate service at max_queue_depth; incoming job shed "
                "(least likely to meet its deadline)");
          }
          break;
      }
    }

    ++in_flight_;
    // Inside the lock, so the gauge moves with in_flight_: it counts
    // ACCEPTED jobs (queued + running), not submitters still blocked.
    metrics_.queue_depth->add();
    queue_.push_back(job);
    dispatch_locked();
  }

  /// Evicts the queued job least likely to meet its deadline; returns true
  /// when a slot was freed. Caller holds mutex_.
  bool shed_one_locked(Clock::time_point incoming_deadline) {
    if (queue_.empty()) return false;
    // Victim = the queued job with the earliest deadline: given the backlog
    // it is the one least likely to complete in time. Jobs without
    // deadlines carry time_point::max() and are therefore picked last.
    const auto victim_it = std::min_element(
        queue_.begin(), queue_.end(), [](const JobPtr& a, const JobPtr& b) {
          return a->deadline < b->deadline;
        });
    if (incoming_deadline < (*victim_it)->deadline)
      return false;  // the incoming job is even less likely to make it
    const JobPtr victim = *victim_it;
    queue_.erase(victim_it);
    metrics_.shed->add();
    victim->fail<Overloaded>(
        "queued locate job shed to admit work more likely to meet its "
        "deadline");
    finish_locked();  // the victim's slot is what admits the incoming job
    return true;
  }

  /// Fails a cancelled or expired job without running it; returns whether
  /// it did. Checked at dispatch and again at start.
  bool drop_if_stale(Job& job, const char* deadline_what) {
    if (job.cancelled()) {
      metrics_.cancelled->add();
      job.fail<Cancelled>("locate job cancelled before it started");
      return true;
    }
    if (job.expired()) {
      metrics_.deadline_exceeded->add();
      job.fail<DeadlineExceeded>(deadline_what);
      return true;
    }
    return false;
  }

  /// Posts queued jobs into the pool while fewer than its worker count
  /// run. Caller holds mutex_.
  void dispatch_locked() {
    while (running_ < pool_.worker_count() && !queue_.empty()) {
      const JobPtr job = std::move(queue_.front());
      queue_.pop_front();
      if (drop_if_stale(*job, "locate job deadline passed while queued")) {
        finish_locked();
        continue;
      }
      ++running_;
      // Lock order is entry mutex -> pool mutex, never the reverse: pool
      // workers re-enter the entry mutex only from run_job, after the pool
      // lock is long released.
      pool_.post([this, job](std::size_t worker) { run_job(job, worker); });
    }
  }

  /// Terminal accounting for one accepted job. Caller holds mutex_.
  void finish_locked() {
    metrics_.completed->add();
    metrics_.queue_depth->sub();
    --in_flight_;
    // Notify while holding the lock: a drain()er woken by this completion
    // may destroy the entry the moment it returns.
    depth_cv_.notify_one();
    drained_cv_.notify_all();
  }

  /// Runs one dispatched job on a pool worker.
  void run_job(const JobPtr& job, std::size_t worker) {
    const std::uint64_t start_ns = obs::steady_now_ns();
    const std::uint64_t serial =
        job_serial_.fetch_add(1, std::memory_order_relaxed) + 1;
    // Start stamp before serial (release): a watchdog scan that observes
    // the serial is guaranteed to read this job's start time.
    worker_start_ns_[worker].store(start_ns, std::memory_order_relaxed);
    worker_job_serial_[worker].store(serial, std::memory_order_release);

    metrics_.queue_wait_ns->record(start_ns - job->enqueued_ns);
    if (!drop_if_stale(*job,
                       "locate job deadline passed before the job started")) {
      try {
        // Chaos hook: an armed "engine.<model>.job" site throws or stalls
        // here, on the worker after dispatch, where a real worker blip
        // lands. The throw surfaces through the future as a typed
        // (transient) InjectedFault.
        runtime::FaultInjector::instance().check(fault_site_.c_str());
        nn::kernels::IntraOpGuard intra(intra_op_threads_);
        job->promise.set_value(locator_->locate(job->trace, scratch_[worker]));
      } catch (...) {
        job->promise.set_exception(std::current_exception());
      }
      metrics_.latency_ns->record(obs::steady_now_ns() - job->enqueued_ns);
    }

    worker_job_serial_[worker].store(0, std::memory_order_release);
    // The rolling runtime distribution: the watchdog's p99 baseline.
    runtime_ns_.record(obs::steady_now_ns() - start_ns);

    std::lock_guard<std::mutex> lock(mutex_);
    --running_;
    finish_locked();
    dispatch_locked();
  }

  void watchdog_loop() {
    std::unique_lock<std::mutex> lock(watchdog_mutex_);
    while (!watchdog_stop_) {
      watchdog_cv_.wait_for(lock, kWatchdogPoll,
                            [this] { return watchdog_stop_; });
      if (watchdog_stop_) return;
      lock.unlock();

      const auto snap = runtime_ns_.snapshot();
      if (snap.count >= watchdog_min_samples_) {
        const double limit_ns = watchdog_multiple_ * snap.quantile(0.99);
        const std::uint64_t now = obs::steady_now_ns();
        for (std::size_t i = 0; i < worker_job_serial_.size(); ++i) {
          const std::uint64_t s1 =
              worker_job_serial_[i].load(std::memory_order_acquire);
          if (s1 == 0 || s1 == worker_flagged_serial_[i]) continue;
          const std::uint64_t start =
              worker_start_ns_[i].load(std::memory_order_relaxed);
          const std::uint64_t s2 =
              worker_job_serial_[i].load(std::memory_order_acquire);
          if (s1 != s2) continue;  // job changed under us; next poll sees it
          if (start < now && static_cast<double>(now - start) > limit_ns) {
            // Flag each stuck job once: the trip count is "jobs that went
            // over the limit", not "polls that saw one over the limit".
            worker_flagged_serial_[i] = s1;
            metrics_.watchdog_trips->add();
          }
        }
      }

      lock.lock();
    }
  }

  const std::shared_ptr<const core::CoLocator> locator_;
  const std::shared_ptr<obs::Registry> registry_;  ///< owns the instruments
  runtime::ThreadPool& pool_;
  const std::size_t max_depth_;
  const AdmissionPolicy admission_;
  const std::size_t intra_op_threads_;  ///< kernel fan-out budget per job
  const std::string fault_site_;        ///< "engine.<model>.job"
  const EngineMetrics metrics_;
  const runtime::StreamMetrics stream_metrics_;
  std::vector<nn::Workspace> scratch_;  ///< one per pool worker

  std::mutex mutex_;
  std::condition_variable depth_cv_;    ///< a backpressure slot freed
  std::condition_variable drained_cv_;  ///< a job settled (drain watches)
  std::deque<JobPtr> queue_;   ///< accepted, not yet dispatched
  std::size_t in_flight_ = 0;  ///< queued + running (guarded by mutex_)
  std::size_t running_ = 0;    ///< dispatched into the pool (guarded)

  // Watchdog: per-worker start stamp and serial of the running job (0 =
  // idle), the runtime histogram behind the rolling p99, and the scanning
  // thread (spawned only when the watchdog is on; declared last, after
  // everything it reads).
  const double watchdog_multiple_;
  const std::size_t watchdog_min_samples_;
  obs::Histogram runtime_ns_;
  std::atomic<std::uint64_t> job_serial_{0};
  std::vector<std::atomic<std::uint64_t>> worker_start_ns_;
  std::vector<std::atomic<std::uint64_t>> worker_job_serial_;
  std::vector<std::uint64_t> worker_flagged_serial_;  ///< watchdog thread only
  std::mutex watchdog_mutex_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;  ///< guarded by watchdog_mutex_
  std::thread watchdog_;
};

}  // namespace detail

// ---------------------------------------------------------------------------
// Stream
// ---------------------------------------------------------------------------

Stream::Stream(std::shared_ptr<detail::ModelEntry> entry,
               StreamingConfig config)
    : entry_(std::move(entry)),
      streaming_(std::make_unique<runtime::StreamingLocator>(
          entry_->locator(), config, entry_->stream_metrics())) {}

std::vector<Detection> Stream::feed(std::span<const float> chunk) {
  const auto detections = streaming_->feed(chunk);
  pending_.insert(pending_.end(), detections.begin(), detections.end());
  return deliver();
}

std::vector<Detection> Stream::finish() {
  const auto detections = streaming_->finish();
  pending_.insert(pending_.end(), detections.begin(), detections.end());
  return deliver();
}

void Stream::reset() {
  streaming_->reset();
  pending_.clear();
}

std::vector<Detection> Stream::deliver() {
  if (!callback_) {
    std::vector<Detection> out(pending_.begin(), pending_.end());
    pending_.clear();
    return out;
  }
  while (!pending_.empty()) {
    callback_(pending_.front());  // a throw keeps the detection queued
    pending_.pop_front();
  }
  return {};
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

std::future<std::vector<std::size_t>> Session::submit(std::vector<float> trace,
                                                      SubmitOptions options) {
  return entry_->submit(std::move(trace), {}, options);
}

std::future<std::vector<std::size_t>> Session::submit_view(
    std::span<const float> trace, SubmitOptions options) {
  return entry_->submit({}, trace, options);
}

Stream Session::open_stream(StreamingConfig config) const {
  return Stream(entry_, config);
}

const core::CoLocator& Session::locator() const { return entry_->locator(); }

crypto::CipherId Session::cipher() const {
  return entry_->locator().config().params.cipher;
}

const EngineMetrics& Session::metrics() const { return entry_->metrics(); }

void Session::drain() { entry_->drain(); }

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

std::string metric_model_name(crypto::CipherId cipher) {
  std::string out;
  for (const char c : crypto::cipher_display_name(cipher)) {
    if (std::isalnum(static_cast<unsigned char>(c)))
      out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

Engine::Engine(EngineConfig config)
    : config_(config),
      registry_(config.registry ? borrow(*config.registry)
                                : std::make_shared<obs::Registry>()),
      pool_(runtime::resolve_workers(config.workers)) {
  pool_.attach_metrics(*registry_);
}

Engine::~Engine() {
  // An entry a Session still holds outlives the map below; its jobs must
  // settle while the pool is up.
  for (const auto& [cipher, entry] : models_) entry->drain();
}

crypto::CipherId Engine::register_model(
    std::shared_ptr<const core::CoLocator> locator) {
  scalocate::detail::require(locator->is_trained(),
                             "Engine: model must be trained");
  const auto cipher = locator->config().params.cipher;
  auto entry = std::make_shared<detail::ModelEntry>(
      std::move(locator), metric_model_name(cipher), registry_, pool_, config_);
  // A replaced entry may hold the last reference to a model with jobs
  // still in flight; its drain must run after the registry lock is
  // released, or a hot-swap would stall every other Engine operation.
  std::shared_ptr<detail::ModelEntry> replaced;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = models_[cipher];
    replaced = std::move(slot);
    slot = std::move(entry);
  }
  return cipher;
}

crypto::CipherId Engine::load_artifact(const std::string& path) {
  return add_model(api::load_artifact(path));
}

crypto::CipherId Engine::add_model(core::CoLocator&& locator) {
  return register_model(
      std::make_shared<const core::CoLocator>(std::move(locator)));
}

crypto::CipherId Engine::attach_model(const core::CoLocator& locator) {
  return register_model(borrow(locator));
}

std::string Engine::telemetry_text() const { return registry_->render_text(); }

std::string Engine::telemetry_json() const { return registry_->render_json(); }

Session Engine::open_session(crypto::CipherId cipher) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = models_.find(cipher);
  scalocate::detail::require(
      it != models_.end(),
      "Engine::open_session: no model registered for cipher " +
          crypto::cipher_display_name(cipher));
  return Session(it->second);
}

Session Engine::open_session() const {
  std::lock_guard<std::mutex> lock(mutex_);
  scalocate::detail::require(models_.size() == 1,
                             "Engine::open_session(): engine serves " +
                                 std::to_string(models_.size()) +
                                 " models; select one by cipher id");
  return Session(models_.begin()->second);
}

bool Engine::has_model(crypto::CipherId cipher) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return models_.count(cipher) > 0;
}

std::vector<ModelInfo> Engine::models() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ModelInfo> out;
  out.reserve(models_.size());
  for (const auto& [cipher, entry] : models_) {
    ModelInfo info;
    info.cipher = cipher;
    info.display_name = crypto::cipher_display_name(cipher);
    info.n_inf = entry->locator().config().params.n_inf;
    info.stride = entry->locator().config().params.stride;
    info.calibration_offset = entry->locator().calibration_offset();
    out.push_back(std::move(info));
  }
  return out;
}

}  // namespace scalocate::api
