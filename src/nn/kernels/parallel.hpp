// Intra-op threading layer of the kernel backend.
//
// The GEMM/conv drivers in gemm.cpp statically partition their macro-loops
// into chunks, and the eval forward (nn::Layer::forward) its batch items,
// and run them through parallel_for(), which fans the chunks out over a
// process-wide compute ThreadPool (the calling thread executes chunk 0 in
// place). The kernels an eval forward calls run inside its chunks, and a
// one-item eval forward splits nothing but a GEMM above the threshold
// below (the paper CNN has none). The partitioning is deterministic — a
// pure function of the problem shape and the caller's thread budget — and
// every chunk writes a disjoint slice of the output with the per-element
// summation order unchanged, so results are bit-identical to the
// single-threaded kernels at every thread count (tested in
// test_nn_kernels and test_nn_eval).
//
// Two axes of control, so inter-op concurrency (many jobs on a service
// pool) and intra-op parallelism (one big trace across cores) can be
// traded without oversubscribing the machine:
//
//   - The process default comes from SCALOCATE_THREADS (unset/0 =
//     hardware concurrency). This is what standalone callers — the
//     trainer, offline CoLocator::locate, the benches — run with.
//   - intra_op_threads() / set_intra_op_threads() scope a per-thread
//     budget: api::Engine sets it around each job from its
//     EngineConfig::intra_op_threads knob (default 1: a saturated job
//     pool already uses every core).
//
// Nested parallel regions never fan out twice: a chunk that itself calls
// parallel_for runs its chunks inline, so compute-pool workers cannot
// block waiting on tasks queued behind themselves (no deadlock by
// construction).
#pragma once

#include <cstddef>
#include <functional>

namespace scalocate::runtime {
class ThreadPool;
}

namespace scalocate::nn::kernels {

/// Process-wide intra-op thread budget: SCALOCATE_THREADS when set to a
/// positive integer (capped at 256), otherwise hardware concurrency (at
/// least 1). Read once, then cached.
std::size_t default_intra_op_threads();

/// Effective intra-op budget of the calling thread: the thread-local
/// override when one is active, otherwise default_intra_op_threads().
std::size_t intra_op_threads();

/// Sets the calling thread's intra-op budget (0 = back to the process
/// default). Service workers use this to pin their jobs to a budget.
void set_intra_op_threads(std::size_t threads);

/// RAII budget override: sets on construction, restores on destruction.
class IntraOpGuard {
 public:
  explicit IntraOpGuard(std::size_t threads);
  ~IntraOpGuard();
  IntraOpGuard(const IntraOpGuard&) = delete;
  IntraOpGuard& operator=(const IntraOpGuard&) = delete;

 private:
  std::size_t prev_;
};

/// Minimum useful-work threshold (in FLOPs) below which the GEMM/conv
/// drivers stay single-threaded: the calling thread's override while a
/// ParallelGrainGuard is active, otherwise the default.
std::size_t parallel_min_flops();

/// RAII override of the calling thread's threshold, so tests can drop it
/// to force tiny problems through the parallel path (0 = the default);
/// restores the previous value on destruction.
class ParallelGrainGuard {
 public:
  explicit ParallelGrainGuard(std::size_t flops);
  ~ParallelGrainGuard();
  ParallelGrainGuard(const ParallelGrainGuard&) = delete;
  ParallelGrainGuard& operator=(const ParallelGrainGuard&) = delete;

 private:
  std::size_t prev_;
};

/// True while the calling thread is executing a parallel_for chunk;
/// parallel_for then degrades to an inline sequential loop.
bool in_parallel_region();

/// The process-wide compute pool behind parallel_for. Created lazily on
/// the first parallel region; null until then and when the process
/// default budget is 1 *and* no caller ever requested more. Exposed for
/// diagnostics — kernel code should go through parallel_for.
runtime::ThreadPool* compute_pool();

/// Runs fn(chunk) for every chunk in [0, chunks). Chunk 0 executes on the
/// calling thread; the rest are posted to the compute pool. Returns after
/// every chunk completed; the first exception (if any) is rethrown on the
/// caller. Chunks must touch disjoint outputs. Inside a parallel region
/// (or with chunks <= 1) the chunks run inline, in order.
void parallel_for(std::size_t chunks,
                  const std::function<void(std::size_t)>& fn);

/// Balanced static split: chunk `i` of `chunks` over `extent` units gets
/// [begin, begin + len). The first `extent % chunks` chunks get one extra.
struct ChunkRange {
  std::size_t begin, len;
};
inline ChunkRange chunk_range(std::size_t extent, std::size_t chunks,
                              std::size_t i) {
  const std::size_t q = extent / chunks;
  const std::size_t r = extent % chunks;
  const std::size_t begin = i * q + (i < r ? i : r);
  return {begin, q + (i < r ? 1 : 0)};
}

}  // namespace scalocate::nn::kernels
