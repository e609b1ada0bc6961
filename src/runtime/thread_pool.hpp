// Fixed-size worker pool over a mutex-guarded MPMC task queue.
//
// Idle workers park on their own condition variables, and the pool's wake
// order picks the one post() wakes (see WakeOrder).
//
// Tasks receive the executing worker's index, which is how api::Engine
// hands each worker a private nn::Workspace (its jobs' window staging)
// while every worker shares one read-only model. submit() wraps a callable into a
// std::future for callers that want the result; post() is the
// fire-and-forget path.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/registry.hpp"

namespace scalocate::runtime {

/// Resolves a configured worker count: 0 = hardware concurrency (at least
/// 1).
std::size_t resolve_workers(std::size_t configured);

class ThreadPool {
 public:
  /// A task is invoked with the worker index in [0, worker_count()).
  using Task = std::function<void(std::size_t)>;

  /// Which parked worker post() wakes.
  enum class WakeOrder {
    /// The longest-parked one, so work rotates over every worker. The
    /// api::Engine's job pool: waking the last-parked one instead cost
    /// `locate` 3-7% of its throughput.
    kFirstParked,
    /// The most recently parked one. Back-to-back short tasks (the
    /// kernels' fork/join chunks) then stay on the core that ran the
    /// previous one, with warm caches and not yet deep idle; rotating
    /// moves each to a cold core.
    kLastParked,
  };

  explicit ThreadPool(std::size_t workers,
                      WakeOrder order = WakeOrder::kFirstParked);
  ~ThreadPool();  ///< Runs every queued task to completion, then joins
                  ///< (futures from submit() never dangle).

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a fire-and-forget task. Exceptions escaping the task are
  /// swallowed (use submit() to observe them through a future).
  void post(Task task);

  /// Enqueues `fn(worker_index)` and returns a future for its result.
  template <typename F>
  auto submit(F&& fn)
      -> std::future<std::invoke_result_t<F&, std::size_t>> {
    using R = std::invoke_result_t<F&, std::size_t>;
    auto task = std::make_shared<std::packaged_task<R(std::size_t)>>(
        std::forward<F>(fn));
    std::future<R> future = task->get_future();
    post([task](std::size_t worker) { (*task)(worker); });
    return future;
  }

  std::size_t worker_count() const { return workers_.size(); }

  /// Publishes the pool's instruments into `registry`: a
  /// `<prefix>.queue_depth` gauge (tasks enqueued but not yet started; its
  /// max is the deepest backlog ever) and a `<prefix>.tasks` counter (every
  /// task posted). Pools sharing a registry and prefix aggregate into the
  /// same instruments. Call before the pool is loaded (the wiring itself
  /// is guarded by the pool mutex, but instruments attach mid-stream
  /// see only later tasks). The registry must outlive the pool.
  void attach_metrics(obs::Registry& registry,
                      const std::string& prefix = "pool");

  /// Tasks enqueued but not yet started (diagnostic).
  std::size_t pending() const;

  /// Blocks until the queue is empty and every worker is idle.
  void wait_idle();

 private:
  void worker_loop(std::size_t index);

  std::vector<std::thread> workers_;
  mutable std::mutex mutex_;
  std::vector<std::condition_variable> wake_;  ///< one per worker
  std::deque<std::size_t> parked_;  ///< idle workers, in parking order
  WakeOrder order_;
  std::condition_variable idle_;
  std::deque<Task> queue_;
  std::size_t active_ = 0;
  bool stopping_ = false;
  obs::Counter* tasks_ = nullptr;       ///< null = telemetry off
  obs::Gauge* queue_depth_ = nullptr;   ///< mirrors queue_.size()
};

}  // namespace scalocate::runtime
