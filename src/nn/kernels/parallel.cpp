#include "nn/kernels/parallel.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

#include "runtime/thread_pool.hpp"

namespace scalocate::nn::kernels {

namespace {

constexpr std::size_t kMaxThreads = 256;

// Default threshold: ~2 MFLOP. At the backend's measured throughput that
// is tens of microseconds of work — below it, posting tasks and the
// extra per-chunk packing cost more than a second core returns.
constexpr std::size_t kDefaultMinFlops = std::size_t{1} << 21;

thread_local std::size_t tls_intra_op_threads = 0;  // 0 = process default
thread_local std::size_t tls_min_flops = 0;         // 0 = kDefaultMinFlops
thread_local bool tls_in_parallel_region = false;

/// Scoped in-parallel-region marker for chunk bodies.
struct RegionGuard {
  bool prev;
  RegionGuard() : prev(tls_in_parallel_region) { tls_in_parallel_region = true; }
  ~RegionGuard() { tls_in_parallel_region = prev; }
};

/// Completion latch shared between the caller and the posted chunks.
struct ForkJoin {
  const std::function<void(std::size_t)>* fn = nullptr;
  std::mutex mutex;
  std::condition_variable done_cv;
  std::size_t remaining = 0;         ///< posted chunks still running
  std::exception_ptr error;          ///< first failure wins

  void run_chunk(std::size_t chunk) noexcept {
    RegionGuard region;
    try {
      (*fn)(chunk);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex);
      if (!error) error = std::current_exception();
    }
  }

  void finish_posted() {
    std::lock_guard<std::mutex> lock(mutex);
    if (--remaining == 0) done_cv.notify_one();
  }
};

}  // namespace

std::size_t default_intra_op_threads() {
  static const std::size_t resolved = [] {
    if (const char* s = std::getenv("SCALOCATE_THREADS")) {
      const long v = std::atol(s);
      if (v > 0)
        return std::min<std::size_t>(static_cast<std::size_t>(v), kMaxThreads);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<std::size_t>(hw > 0 ? hw : 1);
  }();
  return resolved;
}

std::size_t intra_op_threads() {
  return tls_intra_op_threads > 0 ? tls_intra_op_threads
                                  : default_intra_op_threads();
}

void set_intra_op_threads(std::size_t threads) {
  tls_intra_op_threads = threads > kMaxThreads ? kMaxThreads : threads;
}

IntraOpGuard::IntraOpGuard(std::size_t threads) : prev_(tls_intra_op_threads) {
  set_intra_op_threads(threads);
}
IntraOpGuard::~IntraOpGuard() { tls_intra_op_threads = prev_; }

std::size_t parallel_min_flops() {
  return tls_min_flops > 0 ? tls_min_flops : kDefaultMinFlops;
}

ParallelGrainGuard::ParallelGrainGuard(std::size_t flops)
    : prev_(tls_min_flops) {
  tls_min_flops = flops;
}
ParallelGrainGuard::~ParallelGrainGuard() { tls_min_flops = prev_; }

bool in_parallel_region() { return tls_in_parallel_region; }

namespace {

/// The lazily-created process pool. Sized so that a thread-local budget
/// raised above the process default (tests pin 8 on small CI boxes) still
/// gets real concurrency: at least 7 workers + the caller. Workers beyond
/// the chunk count of a region just stay parked, and the last-parked ones
/// wake first, so back-to-back regions reuse warm cores.
runtime::ThreadPool& compute_pool_instance() {
  static runtime::ThreadPool pool(
      std::max<std::size_t>(default_intra_op_threads(), 8) - 1,
      runtime::ThreadPool::WakeOrder::kLastParked);
  return pool;
}

std::atomic<bool> pool_created{false};

}  // namespace

runtime::ThreadPool* compute_pool() {
  return pool_created.load(std::memory_order_acquire)
             ? &compute_pool_instance()
             : nullptr;
}

void parallel_for(std::size_t chunks,
                  const std::function<void(std::size_t)>& fn) {
  if (chunks == 0) return;
  if (chunks == 1 || tls_in_parallel_region) {
    RegionGuard region;
    for (std::size_t c = 0; c < chunks; ++c) fn(c);
    return;
  }

  runtime::ThreadPool& pool = compute_pool_instance();
  pool_created.store(true, std::memory_order_release);

  ForkJoin join;
  join.fn = &fn;
  join.remaining = chunks - 1;
  for (std::size_t c = 1; c < chunks; ++c) {
    pool.post([&join, c](std::size_t /*worker*/) {
      join.run_chunk(c);
      join.finish_posted();
    });
  }
  join.run_chunk(0);
  {
    std::unique_lock<std::mutex> lock(join.mutex);
    join.done_cv.wait(lock, [&join] { return join.remaining == 0; });
    if (join.error) std::rethrow_exception(join.error);
  }
}

}  // namespace scalocate::nn::kernels
