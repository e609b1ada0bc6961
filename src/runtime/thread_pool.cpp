#include "runtime/thread_pool.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace scalocate::runtime {

std::size_t resolve_workers(std::size_t configured) {
  if (configured > 0) return configured;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

ThreadPool::ThreadPool(std::size_t workers, WakeOrder order)
    : wake_(workers), order_(order) {
  detail::require(workers >= 1, "ThreadPool: need at least one worker");
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  for (std::condition_variable& cv : wake_) cv.notify_one();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::attach_metrics(obs::Registry& registry,
                                const std::string& prefix) {
  std::lock_guard<std::mutex> lock(mutex_);
  tasks_ = &registry.counter(prefix + ".tasks");
  queue_depth_ = &registry.gauge(prefix + ".queue_depth");
}

void ThreadPool::post(Task task) {
  std::size_t woken = workers_.size();  // none: every worker is busy
  {
    std::lock_guard<std::mutex> lock(mutex_);
    detail::require(!stopping_, "ThreadPool::post after shutdown");
    queue_.push_back(std::move(task));
    if (tasks_) {
      tasks_->add();
      queue_depth_->add();
    }
    if (!parked_.empty()) {
      if (order_ == WakeOrder::kLastParked) {
        woken = parked_.back();
        parked_.pop_back();
      } else {
        woken = parked_.front();
        parked_.pop_front();
      }
    }
  }
  if (woken < workers_.size()) wake_[woken].notify_one();
}

std::size_t ThreadPool::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::worker_loop(std::size_t index) {
  const auto is_parked = [this, index] {
    return std::find(parked_.begin(), parked_.end(), index) != parked_.end();
  };
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    while (queue_.empty()) {
      if (stopping_) return;  // nothing left to run
      // Parked until post() takes this worker off the list (a busy worker
      // may take the task first; then this one parks again).
      parked_.push_back(index);
      wake_[index].wait(lock, [&] { return stopping_ || !is_parked(); });
      std::erase(parked_, index);  // still listed only at shutdown
    }
    Task task = std::move(queue_.front());
    queue_.pop_front();
    if (queue_depth_) queue_depth_->sub();
    ++active_;
    lock.unlock();
    try {
      task(index);
    } catch (...) {
      // submit() routes exceptions into the future via packaged_task; a
      // bare post() task that throws must not take down the worker (or the
      // process), and active_ must still be released for wait_idle().
    }
    task = nullptr;
    lock.lock();
    --active_;
    if (queue_.empty() && active_ == 0) idle_.notify_all();
  }
}

}  // namespace scalocate::runtime
