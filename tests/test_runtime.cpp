// Runtime subsystem tests: SampleRing / ThreadPool units, streaming-vs-
// offline parity across chunk sizes (including chunk < window), and an
// api::Engine smoke test running many concurrent jobs against one shared
// model.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <limits>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "api/engine.hpp"
#include "common/rng.hpp"
#include "core/locator.hpp"
#include "obs/registry.hpp"
#include "runtime/ring_buffer.hpp"
#include "runtime/streaming_locator.hpp"
#include "runtime/thread_pool.hpp"
#include "trace/scenario.hpp"

namespace scalocate {
namespace {

// ---------------------------------------------------------------------------
// SampleRing
// ---------------------------------------------------------------------------

TEST(SampleRing, AbsoluteIndexingSurvivesDiscards) {
  runtime::SampleRing ring;
  std::vector<float> data(20000);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<float>(i);
  // Feed in uneven chunks.
  ring.append(std::span<const float>(data.data(), 7000));
  ring.append(std::span<const float>(data.data() + 7000, 13000));
  EXPECT_EQ(ring.size(), 20000u);

  ring.discard_below(12000);
  EXPECT_LE(ring.oldest(), 12000u);
  const auto view = ring.view(12000, 100);
  for (std::size_t i = 0; i < 100; ++i)
    EXPECT_FLOAT_EQ(view[i], static_cast<float>(12000 + i));

  // Discarded samples are gone once compaction ran past them.
  if (ring.oldest() > 0) {
    EXPECT_THROW(ring.view(0, 10), Error);
  }
  // Future samples are never readable.
  EXPECT_THROW(ring.view(19990, 20), Error);
}

TEST(SampleRing, ViewRejectsHugeCountsWithoutOverflow) {
  runtime::SampleRing ring;
  std::vector<float> data(1000, 1.0f);
  ring.append(data);
  // Regression: begin + count used to wrap for counts near SIZE_MAX, so
  // the bound check passed and view() returned a span far past the buffer.
  EXPECT_THROW(ring.view(8, std::numeric_limits<std::size_t>::max() - 4),
               Error);
  EXPECT_THROW(ring.view(0, std::numeric_limits<std::size_t>::max()), Error);
  EXPECT_THROW(ring.view(999, std::numeric_limits<std::size_t>::max() - 998),
               Error);
  // A begin past the stream head is rejected even for count 0.
  EXPECT_THROW(ring.view(1001, 0), Error);
  // Exact-fit views still work.
  EXPECT_EQ(ring.view(0, 1000).size(), 1000u);
  EXPECT_EQ(ring.view(1000, 0).size(), 0u);
}

TEST(SampleRing, DiscardBelowCompactionBoundaries) {
  // Lazy compaction fires only once the dead prefix (a) reaches half the
  // buffer AND (b) strictly exceeds 4096 samples. Probe both boundaries.
  std::vector<float> data(8192);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<float>(i);

  runtime::SampleRing half_only;
  half_only.append(data);
  half_only.discard_below(4096);  // exactly half AND exactly 4096: keep
  EXPECT_EQ(half_only.oldest(), 0u);
  half_only.discard_below(4097);  // one past both bounds: compact
  EXPECT_EQ(half_only.oldest(), 4097u);
  const auto v = half_only.view(4097, 64);
  for (std::size_t i = 0; i < 64; ++i)
    EXPECT_FLOAT_EQ(v[i], static_cast<float>(4097 + i));

  runtime::SampleRing above_4096;
  above_4096.append(data);
  above_4096.append(data);  // 16384 resident
  above_4096.discard_below(4100);  // > 4096 but far below half: keep
  EXPECT_EQ(above_4096.oldest(), 0u);

  // Views track absolute indices across interleaved append/discard cycles
  // (each append or compaction may invalidate prior spans; fresh views
  // must still land on the right absolute samples).
  runtime::SampleRing ring;
  std::size_t expect_base = 0;
  for (int round = 0; round < 8; ++round) {
    ring.append(data);
    const std::size_t keep = ring.size() > 6000 ? ring.size() - 6000 : 0;
    ring.discard_below(keep);
    expect_base = keep;
    const auto view = ring.view(ring.size() - 10, 10);
    for (std::size_t i = 0; i < 10; ++i)
      EXPECT_FLOAT_EQ(view[i], static_cast<float>(8192 - 10 + i));
    EXPECT_LE(ring.oldest(), expect_base);
  }
}

TEST(SampleRing, DiscardIsMonotonicAndBounded) {
  runtime::SampleRing ring;
  std::vector<float> chunk(4096, 1.0f);
  for (int i = 0; i < 64; ++i) {
    ring.append(chunk);
    ring.discard_below(ring.size() > 8192 ? ring.size() - 8192 : 0);
  }
  EXPECT_EQ(ring.size(), 64u * 4096u);
  // Lazy compaction keeps at most ~2x the live tail resident.
  EXPECT_LE(ring.size() - ring.oldest(), 2u * 8192u + 4096u);
}

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPool, RunsAllTasksAndReportsWorkerIndex) {
  runtime::ThreadPool pool(4);
  EXPECT_EQ(pool.worker_count(), 4u);
  std::atomic<int> sum{0};
  std::vector<std::future<std::size_t>> futures;
  futures.reserve(64);
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.submit([&sum](std::size_t worker) {
      sum.fetch_add(1);
      return worker;
    }));
  }
  for (auto& f : futures) {
    const std::size_t worker = f.get();
    EXPECT_LT(worker, 4u);
  }
  EXPECT_EQ(sum.load(), 64);
  pool.wait_idle();
  EXPECT_EQ(pool.pending(), 0u);
}

/// Posts `n` tasks that each wait (up to 10 s) until all `n` are running;
/// true when they met, i.e. `n` workers ran at once.
bool tasks_meet(runtime::ThreadPool& pool, std::size_t n) {
  std::mutex mutex;
  std::condition_variable all_in;
  std::size_t running = 0;
  std::vector<std::future<bool>> met;
  for (std::size_t i = 0; i < n; ++i) {
    met.push_back(pool.submit([&](std::size_t) {
      std::unique_lock<std::mutex> lock(mutex);
      if (++running == n) all_in.notify_all();
      return all_in.wait_for(lock, std::chrono::seconds(10),
                             [&] { return running == n; });
    }));
  }
  bool all_met = true;
  for (auto& f : met) all_met = f.get() && all_met;
  return all_met;
}

using WakeOrder = runtime::ThreadPool::WakeOrder;

class ThreadPoolWake : public ::testing::TestWithParam<WakeOrder> {};

TEST_P(ThreadPoolWake, ConcurrentTasksWakeDistinctWorkers) {
  // Each post wakes a different parked worker, so four tasks that wait
  // for each other all get to run at once.
  runtime::ThreadPool pool(4, GetParam());
  EXPECT_TRUE(tasks_meet(pool, 4));
}

TEST_P(ThreadPoolWake, SequentialTasksFollowTheWakeOrder) {
  runtime::ThreadPool pool(4, GetParam());
  // Every worker has started and, once idle, parked: a worker parks in
  // the same critical section that marks it idle.
  ASSERT_TRUE(tasks_meet(pool, 4));
  pool.wait_idle();
  std::vector<std::size_t> ran_on;
  for (int i = 0; i < 12; ++i) {
    pool.post([&ran_on](std::size_t worker) { ran_on.push_back(worker); });
    pool.wait_idle();
  }
  ASSERT_EQ(ran_on.size(), 12u);
  if (GetParam() == WakeOrder::kLastParked) {
    // The worker that ran last is the last parked: it takes every task.
    for (std::size_t worker : ran_on) EXPECT_EQ(worker, ran_on.front());
  } else {
    // Each task goes to the longest-parked worker: a cycle over all four.
    EXPECT_EQ(std::set<std::size_t>(ran_on.begin(), ran_on.end()).size(),
              4u);
    for (std::size_t i = 4; i < ran_on.size(); ++i)
      EXPECT_EQ(ran_on[i], ran_on[i - 4]);
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, ThreadPoolWake,
                         ::testing::Values(WakeOrder::kFirstParked,
                                           WakeOrder::kLastParked));

TEST(ThreadPool, PropagatesExceptionsThroughFutures) {
  runtime::ThreadPool pool(2);
  auto f = pool.submit([](std::size_t) -> int {
    throw std::runtime_error("job failed");
  });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ShutdownRunsQueuedButUnstartedTasks) {
  // The dtor contract: every queued task runs to completion before the
  // workers join, so a future handed out by submit() NEVER dangles — even
  // for tasks that had not started when shutdown began.
  std::vector<std::future<int>> futures;
  {
    runtime::ThreadPool pool(1);
    std::promise<void> gate;
    auto opened = gate.get_future().share();
    futures.push_back(pool.submit([opened](std::size_t) {
      opened.wait();  // pins the only worker while the backlog builds
      return 0;
    }));
    for (int i = 1; i < 9; ++i)
      futures.push_back(pool.submit([i](std::size_t) { return i; }));
    EXPECT_GT(pool.pending(), 0u);  // the backlog really is unstarted
    gate.set_value();
  }  // ~ThreadPool while most tasks are still queued
  for (int i = 0; i < 9; ++i) EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i);
}

TEST(ThreadPool, ShutdownResolvesQueuedFailingTasksExceptionally) {
  // Same contract for tasks that fail while draining during shutdown: the
  // exception lands in the future, typed, not on the worker thread.
  std::future<int> doomed;
  {
    runtime::ThreadPool pool(1);
    std::promise<void> gate;
    auto opened = gate.get_future().share();
    pool.post([opened](std::size_t) { opened.wait(); });
    doomed = pool.submit(
        [](std::size_t) -> int { throw InvalidArgument("queued failure"); });
    gate.set_value();
  }
  EXPECT_THROW(doomed.get(), InvalidArgument);
}

TEST(ThreadPoolMetrics, TasksAndQueueDepth) {
  obs::Registry registry;
  runtime::ThreadPool pool(2);
  pool.attach_metrics(registry);
  std::atomic<std::size_t> ran{0};
  for (int i = 0; i < 50; ++i)
    pool.post([&](std::size_t) { ran.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 50u);
  EXPECT_EQ(registry.counter("pool.tasks").value(), 50u);
  EXPECT_EQ(registry.gauge("pool.queue_depth").value(), 0);
  EXPECT_GE(registry.gauge("pool.queue_depth").max(), 1);
  EXPECT_LE(registry.gauge("pool.queue_depth").max(), 50);
}

// ---------------------------------------------------------------------------
// Trained fixture shared by the parity and service tests (training is the
// expensive part, so it runs once per suite).
// ---------------------------------------------------------------------------

class RuntimeLocator : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    key_ = new crypto::Key16{};
    for (int i = 0; i < 16; ++i)
      (*key_)[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(0x20 + i);

    sc_ = new trace::ScenarioConfig{};
    sc_->cipher = crypto::CipherId::kAes128;
    sc_->random_delay = trace::RandomDelayConfig::kRd2;
    sc_->seed = 77;

    auto acq = trace::acquire_cipher_traces(*sc_, 320, *key_);
    auto noise = trace::acquire_noise_trace(*sc_, 80000);

    core::LocatorConfig lc;
    lc.params = core::PipelineParams::defaults_for(sc_->cipher);
    lc.params.epochs = 8;
    // Streaming cannot run whole-trace Otsu, so parity requires the fixed
    // decision boundary of the linear class margin.
    lc.params.threshold = 0.0f;
    // Plateau-split merging on, so every parity test below also proves the
    // streaming scan mirrors the offline merge rule bit for bit.
    lc.params.merge_gap_windows = 2;
    locator_ = new core::CoLocator(lc);
    locator_->train(acq, noise);

    eval_ = new trace::Trace(
        trace::acquire_eval_trace(*sc_, 16, *key_, false));
    offline_ = new std::vector<std::size_t>(locator_->locate(eval_->samples));
  }

  static void TearDownTestSuite() {
    delete offline_;
    delete eval_;
    delete locator_;
    delete sc_;
    delete key_;
  }

  /// Streams `samples` in pieces of next_chunk() samples each and returns
  /// every detection.
  static std::vector<std::size_t> stream_starts(
      std::span<const float> samples,
      const std::function<std::size_t()>& next_chunk) {
    runtime::StreamingLocator sl(*locator_);
    std::vector<std::size_t> starts;
    for (std::size_t off = 0; off < samples.size();) {
      const std::size_t n = std::min(next_chunk(), samples.size() - off);
      for (const auto& d : sl.feed(samples.subspan(off, n)))
        starts.push_back(d.start);
      off += n;
    }
    for (const auto& d : sl.finish()) starts.push_back(d.start);
    return starts;
  }

  /// Fixed `chunk`-sized pieces.
  static std::vector<std::size_t> stream_starts(
      std::span<const float> samples, std::size_t chunk) {
    return stream_starts(samples, [chunk] { return chunk; });
  }

  /// A seeded random chunk schedule: each size is drawn from 1-16, up to
  /// 3*n_inf, or up to 8192 samples, so one run mixes sub-window,
  /// window-scale and bulk feeds.
  static std::vector<std::size_t> stream_starts_seeded(
      std::span<const float> samples, std::uint64_t seed) {
    Rng rng(seed);
    const auto n_inf =
        static_cast<std::int64_t>(locator_->config().params.n_inf);
    const std::int64_t caps[] = {16, 3 * n_inf, 8192};
    return stream_starts(samples, [&] {
      return static_cast<std::size_t>(
          rng.uniform_int(1, caps[rng.next_below(3)]));
    });
  }

  static crypto::Key16* key_;
  static trace::ScenarioConfig* sc_;
  static core::CoLocator* locator_;
  static trace::Trace* eval_;
  static std::vector<std::size_t>* offline_;
};

crypto::Key16* RuntimeLocator::key_ = nullptr;
trace::ScenarioConfig* RuntimeLocator::sc_ = nullptr;
core::CoLocator* RuntimeLocator::locator_ = nullptr;
trace::Trace* RuntimeLocator::eval_ = nullptr;
std::vector<std::size_t>* RuntimeLocator::offline_ = nullptr;

// ---------------------------------------------------------------------------
// Streaming parity
// ---------------------------------------------------------------------------

TEST_F(RuntimeLocator, OfflineBaselineDetectsSomething) {
  // The parity tests below are vacuous on an empty baseline; make sure the
  // fixture's training produced a usable detector.
  ASSERT_FALSE(offline_->empty());
}

TEST_F(RuntimeLocator, StreamingMatchesOfflineChunk256) {
  EXPECT_EQ(stream_starts(eval_->samples, 256), *offline_);
}

TEST_F(RuntimeLocator, StreamingMatchesOfflineChunk4096) {
  EXPECT_EQ(stream_starts(eval_->samples, 4096), *offline_);
}

TEST_F(RuntimeLocator, StreamingMatchesOfflineFullTrace) {
  EXPECT_EQ(stream_starts(eval_->samples, eval_->samples.size()), *offline_);
}

TEST_F(RuntimeLocator, StreamingMatchesOfflineChunkSmallerThanWindow) {
  // 48-sample chunks are far below the inference window (the classifier
  // must wait several feeds before the first window exists).
  ASSERT_LT(48u, locator_->config().params.n_inf);
  EXPECT_EQ(stream_starts(eval_->samples, 48), *offline_);
}

TEST_F(RuntimeLocator, StreamingMatchesOfflineUnderRandomChunkSchedules) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed)
    EXPECT_EQ(stream_starts_seeded(eval_->samples, seed), *offline_)
        << "seed=" << seed;
}

TEST_F(RuntimeLocator, TruncatedTailParity) {
  // A capture that stops mid-CO (trailing plateau, no falling edge) must
  // produce identical detections offline and streamed, at every cut depth
  // into the trailing CO and for chunk sizes around the window.
  const auto& last = eval_->cos.back();
  const std::size_t n_inf = locator_->config().params.n_inf;
  const std::size_t co_len = last.end_sample - last.start_sample;
  const std::size_t cuts[] = {last.start_sample + n_inf / 2,
                              last.start_sample + 2 * n_inf,
                              last.start_sample + co_len / 3,
                              last.start_sample + co_len - 1};
  for (const std::size_t cut : cuts) {
    ASSERT_LT(cut, eval_->samples.size());
    const std::span<const float> sub(eval_->samples.data(), cut);
    const auto offline = locator_->locate(sub);
    ASSERT_FALSE(offline.empty()) << "cut=" << cut;
    EXPECT_EQ(stream_starts(sub, 1024), offline) << "cut=" << cut;
    EXPECT_EQ(stream_starts(sub, 97), offline) << "cut=" << cut;
    EXPECT_EQ(stream_starts(sub, sub.size()), offline) << "cut=" << cut;
  }
}

TEST_F(RuntimeLocator, ScenarioSuiteStreamingParity) {
  // Every countermeasure scenario in the registry must keep the streaming
  // path bit-identical to offline locate — hostile captures included.
  for (const auto& c : trace::ScenarioSuite::all()) {
    const auto cap = trace::ScenarioSuite::acquire(c, *sc_, 6, *key_);
    const auto offline = locator_->locate(cap.trace.samples);
    ASSERT_FALSE(offline.empty()) << c.name;
    EXPECT_EQ(stream_starts(cap.trace.samples, 2048), offline) << c.name;
  }
}

TEST_F(RuntimeLocator, StreamingEmitsOnlineNotJustAtFinish) {
  runtime::StreamingLocator sl(*locator_);
  std::size_t before_finish = 0;
  const auto samples = std::span<const float>(eval_->samples);
  for (std::size_t off = 0; off < samples.size(); off += 2048)
    before_finish +=
        sl.feed(samples.subspan(off, std::min<std::size_t>(
                                         2048, samples.size() - off)))
            .size();
  const std::size_t at_finish = sl.finish().size();
  EXPECT_EQ(before_finish + at_finish, offline_->size());
  // All but the last few detections must be available before end-of-stream.
  EXPECT_GE(before_finish + 2, offline_->size());
}

TEST_F(RuntimeLocator, StreamingMemoryStaysBounded) {
  runtime::StreamingLocator sl(*locator_);
  const auto samples = std::span<const float>(eval_->samples);
  std::size_t max_resident = 0;
  for (std::size_t off = 0; off < samples.size(); off += 1024) {
    sl.feed(samples.subspan(off,
                            std::min<std::size_t>(1024, samples.size() - off)));
    max_resident = std::max(max_resident, sl.resident_samples());
  }
  sl.finish();
  ASSERT_GT(samples.size(), 4u * 16384u);
  // The tail the pipeline needs is the window + filter lag + alignment
  // radius + compaction slack: a few thousand samples, nowhere near the
  // full trace.
  EXPECT_LT(max_resident, samples.size() / 4);
}

TEST_F(RuntimeLocator, ResetAllowsReuse) {
  runtime::StreamingLocator sl(*locator_);
  sl.feed(eval_->samples);
  auto first = sl.finish();
  EXPECT_THROW(sl.feed(eval_->samples), Error);
  sl.reset();
  sl.feed(eval_->samples);
  auto second = sl.finish();
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i)
    EXPECT_EQ(first[i].start, second[i].start);
}

// ---------------------------------------------------------------------------
// Whole-trace jobs through api::Engine
// ---------------------------------------------------------------------------

/// Accepted jobs of a session's model: every request not refused at
/// admission.
std::uint64_t accepted(const api::Session& session) {
  const auto& m = session.metrics();
  return m.requests->value() - m.rejected->value();
}

TEST_F(RuntimeLocator, ServiceRunsConcurrentJobsAgainstSharedModel) {
  api::Engine engine({.workers = 4});
  engine.attach_model(*locator_);
  auto session = engine.open_session();
  EXPECT_EQ(engine.worker_count(), 4u);

  constexpr std::size_t kJobs = 10;
  std::vector<std::future<std::vector<std::size_t>>> futures;
  futures.reserve(kJobs);
  for (std::size_t j = 0; j < kJobs; ++j)
    futures.push_back(session.submit_view(eval_->samples));

  for (auto& f : futures) EXPECT_EQ(f.get(), *offline_);
  // Futures resolve before the worker-side accounting lands; drain() waits
  // for the books (same convention as every other counter check here).
  session.drain();
  EXPECT_EQ(accepted(session), kJobs);
  EXPECT_EQ(session.metrics().completed->value(), kJobs);
}

TEST_F(RuntimeLocator, ServiceHandlesMixedAndEmptyTraces) {
  api::Engine engine({.workers = 3});
  engine.attach_model(*locator_);
  auto session = engine.open_session();
  auto empty = session.submit(std::vector<float>{});
  auto shorter = session.submit(std::vector<float>(
      eval_->samples.begin(), eval_->samples.begin() + 50000));
  auto full = session.submit(std::vector<float>(eval_->samples));

  EXPECT_TRUE(empty.get().empty());
  const auto expect_short = locator_->locate(
      std::span<const float>(eval_->samples.data(), 50000));
  EXPECT_EQ(shorter.get(), expect_short);
  EXPECT_EQ(full.get(), *offline_);
  session.drain();
  EXPECT_EQ(session.metrics().completed->value(), 3u);
}

TEST_F(RuntimeLocator, DrainRacingSubmitNeverDeadlocksAndResolvesEveryFuture) {
  // drain() hammered from the main thread while a submitter keeps pushing
  // jobs (half of them cancelled immediately). The contract under the race:
  // no deadlock, every future resolves — with the right result or with a
  // typed error — and the accounting converges.
  api::EngineConfig cfg;
  cfg.workers = 2;
  cfg.max_queue_depth = 4;  // small: drain and backpressure really contend
  api::Engine engine(cfg);
  engine.attach_model(*locator_);
  auto session = engine.open_session();

  const auto slice = std::span<const float>(eval_->samples).subspan(0, 4096);
  const auto expected = locator_->locate(slice);

  constexpr std::size_t kJobs = 60;
  std::vector<std::future<std::vector<std::size_t>>> futures(kJobs);
  std::vector<std::shared_ptr<std::atomic<bool>>> flags(kJobs);
  std::atomic<std::size_t> produced{0};
  std::thread submitter([&] {
    for (std::size_t i = 0; i < kJobs; ++i) {
      flags[i] = std::make_shared<std::atomic<bool>>(false);
      futures[i] = session.submit_view(slice, {.cancel = flags[i]});
      if (i % 2 == 1) flags[i]->store(true);  // orphan every other job
      produced.store(i + 1);
    }
  });

  // Race drain() against the live submitter from this thread.
  while (produced.load() < kJobs) session.drain();
  submitter.join();
  session.drain();

  std::size_t ok = 0, cancelled = 0;
  for (auto& f : futures) {
    try {
      EXPECT_EQ(f.get(), expected);
      ++ok;
    } catch (const Cancelled&) {
      ++cancelled;  // the orphaned futures resolve exceptionally, typed
    }
  }
  EXPECT_EQ(ok + cancelled, kJobs);
  EXPECT_EQ(session.metrics().completed->value(), accepted(session));
  EXPECT_EQ(session.metrics().completed->value(), kJobs);
}

}  // namespace
}  // namespace scalocate
