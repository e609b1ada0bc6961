#include "runtime/locator_service.hpp"

#include <utility>

#include "common/error.hpp"
#include "nn/kernels/parallel.hpp"
#include "runtime/fault_injector.hpp"

namespace scalocate::runtime {

ServiceMetrics ServiceMetrics::resolve(obs::Registry& registry,
                                       const std::string& prefix) {
  const std::string p = prefix.empty() ? "service" : prefix;
  ServiceMetrics m;
  m.requests = &registry.counter(p + ".requests");
  m.completed = &registry.counter(p + ".completed");
  m.cancelled = &registry.counter(p + ".cancelled");
  m.backpressure_blocks = &registry.counter(p + ".backpressure_blocks");
  m.rejected = &registry.counter(p + ".rejected");
  m.shed = &registry.counter(p + ".shed");
  m.deadline_exceeded = &registry.counter(p + ".deadline_exceeded");
  m.watchdog_trips = &registry.counter(p + ".watchdog_trips");
  m.queue_depth = &registry.gauge(p + ".queue_depth");
  m.queue_wait_ns = &registry.histogram(p + ".queue_wait_ns");
  m.latency_ns = &registry.histogram(p + ".latency_ns");
  return m;
}

namespace {
std::size_t resolve_concurrency(std::size_t configured, std::size_t workers) {
  const std::size_t cap = configured == 0 ? workers : configured;
  return cap == 0 ? 1 : cap;
}
}  // namespace

LocatorService::LocatorService(const core::CoLocator& locator,
                               ServiceConfig config)
    : locator_(locator),
      owned_pool_(std::make_unique<ThreadPool>(resolve_workers(config.workers))),
      pool_(owned_pool_.get()),
      scratch_(pool_->worker_count()),
      max_depth_(config.max_queue_depth),
      admission_(config.admission),
      concurrency_cap_(
          resolve_concurrency(config.max_concurrency, pool_->worker_count())),
      intra_op_threads_(config.intra_op_threads),
      fault_site_((config.metric_prefix.empty() ? std::string("service")
                                                : config.metric_prefix) +
                  ".job"),
      worker_start_ns_(pool_->worker_count()),
      worker_job_serial_(pool_->worker_count()),
      worker_flagged_serial_(pool_->worker_count(), 0),
      watchdog_multiple_(config.watchdog_p99_multiple),
      watchdog_min_samples_(config.watchdog_min_samples),
      watchdog_poll_(config.watchdog_poll) {
  detail::require(locator_.is_trained(),
                  "LocatorService: locator must be trained");
  if (config.registry) {
    metrics_ = ServiceMetrics::resolve(*config.registry, config.metric_prefix);
    // The service owns this pool, so it also owns publishing the pool's
    // instruments (an external pool's owner — api::Engine — wires its own).
    owned_pool_->attach_metrics(*config.registry);
  }
  start_watchdog();
}

LocatorService::LocatorService(const core::CoLocator& locator, ThreadPool& pool,
                               ServiceConfig config)
    : locator_(locator),
      pool_(&pool),
      scratch_(pool.worker_count()),
      max_depth_(config.max_queue_depth),
      admission_(config.admission),
      concurrency_cap_(
          resolve_concurrency(config.max_concurrency, pool.worker_count())),
      intra_op_threads_(config.intra_op_threads),
      fault_site_((config.metric_prefix.empty() ? std::string("service")
                                                : config.metric_prefix) +
                  ".job"),
      worker_start_ns_(pool.worker_count()),
      worker_job_serial_(pool.worker_count()),
      worker_flagged_serial_(pool.worker_count(), 0),
      watchdog_multiple_(config.watchdog_p99_multiple),
      watchdog_min_samples_(config.watchdog_min_samples),
      watchdog_poll_(config.watchdog_poll) {
  detail::require(locator_.is_trained(),
                  "LocatorService: locator must be trained");
  if (config.registry)
    metrics_ = ServiceMetrics::resolve(*config.registry, config.metric_prefix);
  start_watchdog();
}

LocatorService::~LocatorService() {
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

void LocatorService::drain() {
  // Waits on THIS service's jobs only: on a shared (Engine) pool, other
  // models' traffic must not block tearing this one down. Every accepted
  // job reaches finish_locked() exactly once — run, shed, cancelled, or
  // expired — so the predicate always converges.
  std::unique_lock<std::mutex> lock(mutex_);
  drained_cv_.wait(lock,
                   [this] { return completed_.load() >= submitted_.load(); });
}

std::optional<std::chrono::steady_clock::time_point>
LocatorService::resolve_deadline(const SubmitOptions& options) {
  std::optional<std::chrono::steady_clock::time_point> deadline =
      options.deadline;
  if (options.timeout) {
    const auto from_timeout = std::chrono::steady_clock::now() + *options.timeout;
    if (!deadline || from_timeout < *deadline) deadline = from_timeout;
  }
  return deadline;
}

template <typename R, typename Body>
std::future<R> LocatorService::submit_impl(CancelFlag cancel,
                                           const SubmitOptions& options,
                                           Body body) {
  auto promise = std::make_shared<std::promise<R>>();
  std::future<R> future = promise->get_future();

  auto job = std::make_shared<JobRec>();
  job->cancel = std::move(cancel);
  if (const auto deadline = resolve_deadline(options)) {
    job->deadline = *deadline;
    job->has_deadline = true;
  } else {
    job->deadline = std::chrono::steady_clock::time_point::max();
  }
  if (metrics_.enabled()) job->enqueued_ns = obs::steady_now_ns();
  job->fail = [promise](std::exception_ptr error) {
    promise->set_exception(std::move(error));
  };
  job->run = [this, promise, body = std::move(body)](std::size_t worker) {
    try {
      // Chaos hook: an armed "<prefix>.job" site throws/stalls here, i.e.
      // on the worker after dispatch — exactly where a real worker blip
      // lands. The throw surfaces through the future as a typed
      // (transient) InjectedFault.
      FaultInjector::instance().check(fault_site_.c_str());
      // Pin this job's kernel fan-out to the configured budget (1 keeps
      // the legacy one-core-per-job behavior; 0 = process default).
      nn::kernels::IntraOpGuard intra(intra_op_threads_);
      promise->set_value(body(worker));
    } catch (...) {
      promise->set_exception(std::current_exception());
    }
  };

  enqueue(job);
  return future;
}

void LocatorService::enqueue(const JobPtr& job) {
  if (metrics_.enabled()) metrics_.requests->add();

  // Already-expired deadlines are refused before any queueing: the cheap
  // path the tentpole asks for. Counted as a rejection, not a submission.
  if (job->has_deadline &&
      std::chrono::steady_clock::now() >= job->deadline) {
    rejected_.fetch_add(1);
    deadline_exceeded_.fetch_add(1);
    if (metrics_.enabled()) {
      metrics_.rejected->add();
      metrics_.deadline_exceeded->add();
    }
    job->fail(std::make_exception_ptr(DeadlineExceeded(
        "locate job deadline already passed at submit")));
    return;
  }

  std::unique_lock<std::mutex> lock(mutex_);
  if (max_depth_ > 0 && in_flight_ >= max_depth_) {
    switch (admission_) {
      case AdmissionPolicy::kBlock: {
        if (metrics_.enabled()) metrics_.backpressure_blocks->add();
        if (job->has_deadline) {
          const bool admitted =
              depth_cv_.wait_until(lock, job->deadline, [this] {
                return in_flight_ < max_depth_;
              });
          if (!admitted) {
            rejected_.fetch_add(1);
            deadline_exceeded_.fetch_add(1);
            if (metrics_.enabled()) {
              metrics_.rejected->add();
              metrics_.deadline_exceeded->add();
            }
            lock.unlock();
            job->fail(std::make_exception_ptr(DeadlineExceeded(
                "locate job deadline passed while blocked on backpressure")));
            return;
          }
        } else {
          depth_cv_.wait(lock, [this] { return in_flight_ < max_depth_; });
        }
        break;
      }
      case AdmissionPolicy::kRejectWhenFull: {
        rejected_.fetch_add(1);
        if (metrics_.enabled()) metrics_.rejected->add();
        throw Overloaded("locate service at max_queue_depth (" +
                         std::to_string(max_depth_) +
                         " jobs in flight); admission policy rejects");
      }
      case AdmissionPolicy::kShedByDeadline: {
        if (!shed_one_locked(job->deadline, job->has_deadline)) {
          // Nothing queued to evict, or the incoming job itself is the one
          // least likely to meet its deadline — it is the victim.
          rejected_.fetch_add(1);
          if (metrics_.enabled()) metrics_.rejected->add();
          throw Overloaded(
              "locate service at max_queue_depth; incoming job shed "
              "(least likely to meet its deadline)");
        }
        break;
      }
    }
  }

  ++in_flight_;
  submitted_.fetch_add(1);
  // Inside the lock so the gauge moves together with in_flight_: the
  // queue-depth gauge counts ACCEPTED jobs (queued + running), not
  // submitters still blocked on backpressure.
  if (metrics_.enabled()) metrics_.queue_depth->add();
  queue_.push_back(job);
  dispatch_locked();
}

bool LocatorService::shed_one_locked(
    std::chrono::steady_clock::time_point incoming_deadline,
    bool incoming_has_deadline) {
  if (queue_.empty()) return false;
  // Victim = queued job with the earliest deadline: given the backlog it is
  // the one least likely to complete in time, so failing it fast preserves
  // capacity for jobs that can still make their deadlines. Jobs without
  // deadlines carry time_point::max() and are therefore picked last.
  auto victim_it = queue_.begin();
  for (auto it = std::next(queue_.begin()); it != queue_.end(); ++it)
    if ((*it)->deadline < (*victim_it)->deadline) victim_it = it;
  if (incoming_has_deadline && incoming_deadline < (*victim_it)->deadline)
    return false;  // the incoming job is even less likely to make it
  JobPtr victim = *victim_it;
  queue_.erase(victim_it);
  shed_.fetch_add(1);
  if (metrics_.enabled()) metrics_.shed->add();
  victim->fail(std::make_exception_ptr(Overloaded(
      "queued locate job shed to admit work more likely to meet its "
      "deadline")));
  finish_locked();  // the victim's slot is what admits the incoming job
  return true;
}

void LocatorService::dispatch_locked() {
  while (running_ < concurrency_cap_ && !queue_.empty()) {
    JobPtr job = queue_.front();
    queue_.pop_front();
    if (job->cancel && job->cancel->load()) {
      if (metrics_.enabled()) metrics_.cancelled->add();
      job->fail(std::make_exception_ptr(
          Cancelled("locate job cancelled before it started")));
      finish_locked();
      continue;
    }
    if (job->has_deadline &&
        std::chrono::steady_clock::now() >= job->deadline) {
      // Expired in queue: fail cheaply, never dispatch to a worker.
      deadline_exceeded_.fetch_add(1);
      if (metrics_.enabled()) metrics_.deadline_exceeded->add();
      job->fail(std::make_exception_ptr(DeadlineExceeded(
          "locate job deadline passed while queued")));
      finish_locked();
      continue;
    }
    ++running_;
    // Lock order is service mutex -> pool mutex, never the reverse: pool
    // workers re-enter the service mutex only from run_job, after the pool
    // lock is long released.
    pool_->post([this, job](std::size_t worker) { run_job(job, worker); });
  }
}

void LocatorService::run_job(const JobPtr& job, std::size_t worker) {
  const std::uint64_t start_ns = obs::steady_now_ns();
  const std::uint64_t serial =
      job_serial_.fetch_add(1, std::memory_order_relaxed) + 1;
  // Start stamp before serial (release): a watchdog scan that observes the
  // serial is guaranteed to read this job's start time, not a stale one.
  worker_start_ns_[worker].store(start_ns, std::memory_order_relaxed);
  worker_job_serial_[worker].store(serial, std::memory_order_release);

  record_queue_wait(job->enqueued_ns);
  if (job->cancel && job->cancel->load()) {
    // Cancelled between dispatch and start (rare; dispatch also checks).
    if (metrics_.enabled()) metrics_.cancelled->add();
    job->fail(std::make_exception_ptr(
        Cancelled("locate job cancelled before it started")));
  } else if (job->has_deadline &&
             std::chrono::steady_clock::now() >= job->deadline) {
    deadline_exceeded_.fetch_add(1);
    if (metrics_.enabled()) metrics_.deadline_exceeded->add();
    job->fail(std::make_exception_ptr(DeadlineExceeded(
        "locate job deadline passed before the job started")));
  } else {
    job->run(worker);  // routes result or exception into the promise
    record_latency(job->enqueued_ns);
  }

  worker_job_serial_[worker].store(0, std::memory_order_release);
  // Always-on rolling runtime distribution: the watchdog's p99 baseline.
  runtime_ns_.record(obs::steady_now_ns() - start_ns);

  std::lock_guard<std::mutex> lock(mutex_);
  --running_;
  finish_locked();
  dispatch_locked();
}

void LocatorService::finish_locked() {
  if (metrics_.enabled()) {
    metrics_.completed->add();
    metrics_.queue_depth->sub();
  }
  // Notify while holding the lock: a drain()er woken by this completion may
  // destroy the service the moment it returns, so the notify must not touch
  // the condition variables after the counters became visible.
  completed_.fetch_add(1);
  --in_flight_;
  depth_cv_.notify_one();
  drained_cv_.notify_all();
}

void LocatorService::start_watchdog() {
  if (watchdog_multiple_ <= 0.0) return;
  watchdog_ = std::thread([this] { watchdog_loop(); });
}

void LocatorService::watchdog_loop() {
  std::unique_lock<std::mutex> lock(watchdog_mutex_);
  while (!watchdog_stop_) {
    watchdog_cv_.wait_for(lock, watchdog_poll_,
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
          watchdog_trips_.fetch_add(1);
          if (metrics_.enabled()) metrics_.watchdog_trips->add();
        }
      }
    }

    lock.lock();
  }
}

std::future<std::vector<std::size_t>> LocatorService::submit(
    std::vector<float> trace, CancelFlag cancel, SubmitOptions options) {
  auto owned = std::make_shared<std::vector<float>>(std::move(trace));
  return submit_impl<std::vector<std::size_t>>(
      std::move(cancel), options, [this, owned](std::size_t worker) {
        return locator_.locate(*owned, scratch_[worker]);
      });
}

std::future<std::vector<std::size_t>> LocatorService::submit_view(
    std::span<const float> trace, CancelFlag cancel, SubmitOptions options) {
  return submit_impl<std::vector<std::size_t>>(
      std::move(cancel), options, [this, trace](std::size_t worker) {
        return locator_.locate(trace, scratch_[worker]);
      });
}

std::future<LocatorService::TimedResult> LocatorService::submit_timed(
    std::span<const float> trace, SubmitOptions options) {
  const auto enqueued = std::chrono::steady_clock::now();
  return submit_impl<TimedResult>(
      nullptr, options, [this, trace, enqueued](std::size_t worker) {
        TimedResult result;
        result.starts = locator_.locate(trace, scratch_[worker]);
        result.latency_seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          enqueued)
                .count();
        return result;
      });
}

}  // namespace scalocate::runtime
