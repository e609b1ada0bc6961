// Chaos suite: the serving plane under injected faults.
//
// Every test arms runtime::FaultInjector at a named site (worker throw,
// worker stall, NaN-poisoned stream chunks, truncated artifact reads) and
// asserts the degradation contract the tentpole promises:
//
//   - no crash, no deadlock: every submit either returns a result or
//     throws a TYPED error (Overloaded / DeadlineExceeded / Cancelled /
//     CorruptSignal / InjectedFault / ArtifactTruncated);
//   - accepted work is unaffected: results of jobs that complete stay
//     bit-identical to offline CoLocator::locate;
//   - the books balance: FaultInjector::injected(site) reconciles exactly
//     with the typed errors observed and with the engine's obs counters
//     (shed, rejected, deadline_exceeded, retries, watchdog_trips).
//
// Training is the expensive part, so one Camellia model (shortest CO) is
// trained per suite and shared; the injector is reset around every test so
// no armed site leaks into a neighbor.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <future>
#include <limits>
#include <thread>
#include <vector>

#include "api/scalocate.hpp"
#include "obs/registry.hpp"
#include "runtime/fault_injector.hpp"
#include "runtime/streaming_locator.hpp"
#include "trace/scenario.hpp"

namespace scalocate {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

class FaultsSuite : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    key_ = new crypto::Key16{};
    for (int i = 0; i < 16; ++i)
      (*key_)[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(0x50 + i);

    sc_ = new trace::ScenarioConfig{};
    sc_->cipher = crypto::CipherId::kCamellia128;  // shortest CO: fast suite
    sc_->random_delay = trace::RandomDelayConfig::kRd2;
    sc_->seed = 505;

    auto acq = trace::acquire_cipher_traces(*sc_, 224, *key_);
    auto noise = trace::acquire_noise_trace(*sc_, 60000);

    core::LocatorConfig lc;
    lc.params = core::PipelineParams::defaults_for(sc_->cipher);
    lc.params.sizes = {224, 160, 96};
    lc.params.epochs = 6;
    lc.params.threshold = 0.0f;
    locator_ = new core::CoLocator(lc);
    locator_->train(acq, noise);

    eval_ = new trace::Trace(trace::acquire_eval_trace(*sc_, 6, *key_, false));
    offline_ = new std::vector<std::size_t>(locator_->locate(eval_->samples));

    artifact_ = new std::string(
        (fs::temp_directory_path() / "scalocate_faults_model.scart").string());
    locator_->export_artifact(*artifact_);
  }

  static void TearDownTestSuite() {
    std::remove(artifact_->c_str());
    delete artifact_;
    delete offline_;
    delete eval_;
    delete locator_;
    delete sc_;
    delete key_;
  }

  void SetUp() override { runtime::FaultInjector::instance().reset(); }
  void TearDown() override { runtime::FaultInjector::instance().reset(); }

  static std::span<const float> eval_span() { return eval_->samples; }

  static crypto::Key16* key_;
  static trace::ScenarioConfig* sc_;
  static core::CoLocator* locator_;
  static trace::Trace* eval_;
  static std::vector<std::size_t>* offline_;
  static std::string* artifact_;
};

crypto::Key16* FaultsSuite::key_ = nullptr;
trace::ScenarioConfig* FaultsSuite::sc_ = nullptr;
core::CoLocator* FaultsSuite::locator_ = nullptr;
trace::Trace* FaultsSuite::eval_ = nullptr;
std::vector<std::size_t>* FaultsSuite::offline_ = nullptr;
std::string* FaultsSuite::artifact_ = nullptr;

// ---------------------------------------------------------------------------
// Worker faults through the Engine
// ---------------------------------------------------------------------------

/// The fault site of the suite's model: api::Engine names it after the
/// model's instruments.
constexpr const char* kJobSite = "engine.camellia.job";

/// Accepted jobs of a session's model: every request not refused at
/// admission.
std::uint64_t accepted(const api::Session& session) {
  const auto& m = session.metrics();
  return m.requests->value() - m.rejected->value();
}

TEST_F(FaultsSuite, InjectedWorkerThrowIsTypedTransientAndAccountedFor) {
  auto& injector = runtime::FaultInjector::instance();
  runtime::FaultSpec spec;
  spec.action = runtime::FaultSpec::Action::kThrow;
  spec.times = 2;
  injector.arm(kJobSite, spec);

  api::Engine engine({.workers = 2});
  engine.attach_model(*locator_);
  auto session = engine.open_session();
  std::vector<std::future<std::vector<std::size_t>>> futures;
  for (int i = 0; i < 6; ++i) futures.push_back(session.submit_view(eval_span()));

  std::size_t faulted = 0;
  for (auto& f : futures) {
    try {
      EXPECT_EQ(f.get(), *offline_);  // accepted work stays bit-identical
    } catch (const runtime::InjectedFault& e) {
      EXPECT_TRUE(is_transient(e));
      ++faulted;
    }
  }
  // Exactly the injected faults surfaced, as typed errors, nowhere else.
  EXPECT_EQ(faulted, 2u);
  EXPECT_EQ(injector.injected(kJobSite), 2u);
  EXPECT_EQ(injector.hits(kJobSite), 6u);
  session.drain();
  EXPECT_EQ(session.metrics().completed->value(), accepted(session));
}

TEST_F(FaultsSuite, InjectedStallTripsWatchdog) {
  api::EngineConfig cfg;
  cfg.workers = 2;
  cfg.watchdog_p99_multiple = 3.0;
  cfg.watchdog_min_samples = 16;
  api::Engine engine(cfg);
  engine.attach_model(*locator_);
  auto session = engine.open_session();
  const auto& trips = *session.metrics().watchdog_trips;

  // Establish a p99 baseline with small, fast jobs (noise-only slices),
  // timing each from submit to result: an upper bound on its run time.
  const auto slice = eval_span().subspan(0, 4096);
  std::chrono::milliseconds slowest{0};
  for (int i = 0; i < 20; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    session.submit_view(slice).get();
    slowest = std::max(slowest, std::chrono::ceil<std::chrono::milliseconds>(
                                    std::chrono::steady_clock::now() - t0));
  }
  EXPECT_EQ(trips.value(), 0u);

  // One wedged worker: stalls past 3x the baseline p99 in every build. The
  // p99 is at most the slowest warm-up run (the histogram clamps it to its
  // exact max), so 4x the slowest warm-up job clears the limit even where
  // a sanitizer slows every job; 1200 ms is the floor for fast builds.
  auto& injector = runtime::FaultInjector::instance();
  runtime::FaultSpec spec;
  spec.action = runtime::FaultSpec::Action::kStall;
  spec.stall = std::max(1200ms, 4 * slowest);
  spec.times = 1;
  injector.arm(kJobSite, spec);

  EXPECT_EQ(session.submit_view(slice).get(),
            locator_->locate(slice));  // flagged, never killed
  EXPECT_EQ(injector.injected(kJobSite), 1u);
  EXPECT_EQ(trips.value(), 1u);
}

// ---------------------------------------------------------------------------
// Deadlines
// ---------------------------------------------------------------------------

TEST_F(FaultsSuite, ExpiredDeadlineIsRejectedBeforeQueueing) {
  api::Engine engine({.workers = 1});
  engine.attach_model(*locator_);
  auto session = engine.open_session();
  api::SubmitOptions options;
  options.deadline = std::chrono::steady_clock::now() - 1ms;
  auto future = session.submit_view(eval_span(), options);
  try {
    future.get();
    FAIL() << "expected DeadlineExceeded";
  } catch (const DeadlineExceeded& e) {
    EXPECT_TRUE(is_transient(e));
  }
  // Rejected cheaply: never accepted, no worker touched it.
  const auto& m = session.metrics();
  EXPECT_EQ(accepted(session), 0u);
  EXPECT_EQ(m.rejected->value(), 1u);
  EXPECT_EQ(m.deadline_exceeded->value(), 1u);
}

TEST_F(FaultsSuite, DeadlineExpiringInQueueFailsWithoutRunning) {
  // One worker; the first job occupies it (stall makes that deterministic),
  // so the timed-out jobs expire while still queued.
  auto& injector = runtime::FaultInjector::instance();
  runtime::FaultSpec spec;
  spec.action = runtime::FaultSpec::Action::kStall;
  spec.stall = 250ms;
  spec.times = 1;
  injector.arm(kJobSite, spec);

  api::Engine engine({.workers = 1});
  engine.attach_model(*locator_);
  auto session = engine.open_session();
  auto blocker = session.submit_view(eval_span());

  api::SubmitOptions options;
  options.timeout = 5ms;
  std::vector<std::future<std::vector<std::size_t>>> doomed;
  for (int i = 0; i < 3; ++i)
    doomed.push_back(session.submit_view(eval_span(), options));

  EXPECT_EQ(blocker.get(), *offline_);
  for (auto& f : doomed) EXPECT_THROW(f.get(), DeadlineExceeded);
  session.drain();
  // Expired-in-queue jobs were accepted, so they complete (exceptionally)
  // and the books still balance.
  const auto& m = session.metrics();
  EXPECT_EQ(accepted(session), 4u);
  EXPECT_EQ(m.completed->value(), 4u);
  EXPECT_EQ(m.deadline_exceeded->value(), 3u);
  // The worker only ever ran the blocker: 1 hit at the job site.
  EXPECT_EQ(injector.hits(kJobSite), 1u);
}

TEST_F(FaultsSuite, BlockedSubmitGivesUpAtItsDeadline) {
  // kBlock with a deadline: one worker, one slot, the first job stalled, so
  // a second submit blocks on backpressure until its timeout passes.
  auto& injector = runtime::FaultInjector::instance();
  runtime::FaultSpec spec;
  spec.action = runtime::FaultSpec::Action::kStall;
  spec.stall = 250ms;
  spec.times = 1;
  injector.arm(kJobSite, spec);

  api::Engine engine({.workers = 1, .max_queue_depth = 1});
  engine.attach_model(*locator_);
  auto session = engine.open_session();
  auto blocker = session.submit_view(eval_span());

  api::SubmitOptions options;
  options.timeout = 20ms;
  auto doomed = session.submit_view(eval_span(), options);
  EXPECT_THROW(doomed.get(), DeadlineExceeded);

  EXPECT_EQ(blocker.get(), *offline_);
  session.drain();
  const auto& m = session.metrics();
  EXPECT_EQ(m.backpressure_blocks->value(), 1u);
  EXPECT_EQ(m.rejected->value(), 1u);
  EXPECT_EQ(m.deadline_exceeded->value(), 1u);
  EXPECT_EQ(accepted(session), 1u);  // the blocker only
  EXPECT_EQ(m.completed->value(), 1u);
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

TEST_F(FaultsSuite, RejectWhenFullThrowsOverloadedSynchronously) {
  auto& injector = runtime::FaultInjector::instance();
  runtime::FaultSpec spec;
  spec.action = runtime::FaultSpec::Action::kStall;
  spec.stall = 250ms;
  spec.times = 1;
  injector.arm(kJobSite, spec);

  api::EngineConfig cfg;
  cfg.workers = 1;
  cfg.max_queue_depth = 1;
  cfg.admission = api::AdmissionPolicy::kRejectWhenFull;
  api::Engine engine(cfg);
  engine.attach_model(*locator_);
  auto session = engine.open_session();

  auto first = session.submit_view(eval_span());  // fills the only slot
  try {
    session.submit_view(eval_span());
    FAIL() << "expected Overloaded";
  } catch (const Overloaded& e) {
    EXPECT_TRUE(is_transient(e));
  }
  EXPECT_EQ(first.get(), *offline_);  // accepted work unaffected
  EXPECT_EQ(session.metrics().rejected->value(), 1u);
  EXPECT_EQ(accepted(session), 1u);
}

TEST_F(FaultsSuite, ShedByDeadlineEvictsTheLeastViableQueuedJob) {
  auto& injector = runtime::FaultInjector::instance();
  runtime::FaultSpec spec;
  spec.action = runtime::FaultSpec::Action::kStall;
  spec.stall = 300ms;
  spec.times = 1;
  injector.arm(kJobSite, spec);

  api::EngineConfig cfg;
  cfg.workers = 1;
  cfg.max_queue_depth = 2;
  cfg.admission = api::AdmissionPolicy::kShedByDeadline;
  api::Engine engine(cfg);
  engine.attach_model(*locator_);
  auto session = engine.open_session();
  const auto& m = session.metrics();

  const auto now = std::chrono::steady_clock::now();
  auto running = session.submit_view(eval_span());  // dispatched, stalling

  api::SubmitOptions tight;
  tight.deadline = now + 10s;
  auto victim = session.submit_view(eval_span(), tight);  // queued

  // Full. A looser-deadline arrival evicts the queued tighter-deadline job
  // (the one least likely to make it).
  api::SubmitOptions loose;
  loose.deadline = now + 20s;
  auto admitted = session.submit_view(eval_span(), loose);
  EXPECT_THROW(victim.get(), Overloaded);
  EXPECT_EQ(m.shed->value(), 1u);

  // Full again. An arrival with the tightest deadline of all is itself the
  // victim: rejected synchronously, nothing evicted.
  api::SubmitOptions tightest;
  tightest.deadline = now + 5s;
  EXPECT_THROW(session.submit_view(eval_span(), tightest), Overloaded);
  EXPECT_EQ(m.shed->value(), 1u);
  EXPECT_EQ(m.rejected->value(), 1u);

  EXPECT_EQ(running.get(), *offline_);
  EXPECT_EQ(admitted.get(), *offline_);
  session.drain();
  EXPECT_EQ(m.completed->value(), accepted(session));
}

TEST_F(FaultsSuite, ShedByDeadlineWithEverySlotRunningRefusesTheIncomingJob) {
  // Nothing queued to evict: the one slot is running, so the incoming job
  // is refused synchronously and nothing is shed.
  auto& injector = runtime::FaultInjector::instance();
  runtime::FaultSpec spec;
  spec.action = runtime::FaultSpec::Action::kStall;
  spec.stall = 250ms;
  spec.times = 1;
  injector.arm(kJobSite, spec);

  api::EngineConfig cfg;
  cfg.workers = 1;
  cfg.max_queue_depth = 1;
  cfg.admission = api::AdmissionPolicy::kShedByDeadline;
  api::Engine engine(cfg);
  engine.attach_model(*locator_);
  auto session = engine.open_session();

  auto running = session.submit_view(eval_span());  // the only slot, running
  api::SubmitOptions loose;
  loose.deadline = std::chrono::steady_clock::now() + 20s;
  EXPECT_THROW(session.submit_view(eval_span(), loose), Overloaded);

  EXPECT_EQ(running.get(), *offline_);
  session.drain();
  const auto& m = session.metrics();
  EXPECT_EQ(m.shed->value(), 0u);
  EXPECT_EQ(m.rejected->value(), 1u);
  EXPECT_EQ(accepted(session), 1u);
}

// ---------------------------------------------------------------------------
// Poisoned streaming chunks
// ---------------------------------------------------------------------------

TEST_F(FaultsSuite, PoisonedChunkIsRejectedAndTheStreamRecovers) {
  auto& injector = runtime::FaultInjector::instance();
  runtime::FaultSpec spec;
  spec.action = runtime::FaultSpec::Action::kPoison;
  spec.skip = 1;   // first chunk clean,
  spec.times = 1;  // second chunk poisoned, rest clean
  injector.arm("stream.feed", spec);

  const auto samples = eval_span();
  const std::size_t chunk = 4096;
  obs::Registry registry;
  const auto metrics = runtime::StreamMetrics::resolve(registry, "stream");
  runtime::StreamingLocator stream(*locator_, {}, metrics);  // kReject

  std::vector<std::size_t> starts;
  std::vector<float> accepted;  // what the stream actually ingested
  std::size_t rejected_chunks = 0, fed = 0;
  for (std::size_t off = 0; off < samples.size(); off += chunk) {
    const auto piece = samples.subspan(off, std::min(chunk, samples.size() - off));
    try {
      for (const auto& d : stream.feed(piece)) starts.push_back(d.start);
      accepted.insert(accepted.end(), piece.begin(), piece.end());
    } catch (const CorruptSignal&) {
      ++rejected_chunks;  // typed, loud, and the stream stays usable
    }
    ++fed;
  }
  for (const auto& d : stream.finish()) starts.push_back(d.start);

  EXPECT_EQ(rejected_chunks, 1u);
  EXPECT_EQ(injector.injected("stream.feed"), 1u);
  EXPECT_EQ(injector.hits("stream.feed"), fed);
  EXPECT_GT(metrics.corrupt_samples->value(), 0u);
  // Parity over the accepted samples: the rejected chunk is simply not part
  // of the stream, everything the stream DID accept scores bit-identical.
  EXPECT_EQ(starts, locator_->locate(accepted));
}

TEST_F(FaultsSuite, SanitizePolicyScrubsPoisonAndKeepsParity) {
  auto& injector = runtime::FaultInjector::instance();
  runtime::FaultSpec spec;
  spec.action = runtime::FaultSpec::Action::kPoison;
  spec.times = 1;  // first chunk poisoned
  spec.poison_stride = 64;
  injector.arm("stream.feed", spec);

  const auto samples = eval_span();
  const std::size_t chunk = 4096;
  runtime::StreamingConfig cfg;
  cfg.nan_policy = runtime::StreamingConfig::NanPolicy::kSanitize;
  obs::Registry registry;
  const auto metrics = runtime::StreamMetrics::resolve(registry, "stream");
  runtime::StreamingLocator stream(*locator_, cfg, metrics);

  std::vector<std::size_t> starts;
  for (std::size_t off = 0; off < samples.size(); off += chunk) {
    const auto piece = samples.subspan(off, std::min(chunk, samples.size() - off));
    for (const auto& d : stream.feed(piece)) starts.push_back(d.start);
  }
  for (const auto& d : stream.finish()) starts.push_back(d.start);

  // Reference: offline locate over the stream as sanitized — the poisoned
  // samples (every 64th of the first chunk) zeroed.
  std::vector<float> sanitized(samples.begin(), samples.end());
  for (std::size_t i = 0; i < chunk && i < sanitized.size(); i += 64)
    sanitized[i] = 0.0f;
  EXPECT_EQ(starts, locator_->locate(sanitized));
  EXPECT_EQ(metrics.corrupt_samples->value(), (chunk + 63) / 64);
  EXPECT_EQ(injector.injected("stream.feed"), 1u);
}

TEST_F(FaultsSuite, RealNanInputIsCaughtWithoutTheInjector) {
  // The validation is not an injector artifact: a genuinely corrupt chunk
  // (dying probe) hits the same typed error with nothing armed.
  obs::Registry registry;
  const auto metrics = runtime::StreamMetrics::resolve(registry, "stream");
  runtime::StreamingLocator stream(*locator_, {}, metrics);
  std::vector<float> bad(1024, 0.5f);
  bad[17] = std::numeric_limits<float>::quiet_NaN();
  bad[900] = std::numeric_limits<float>::infinity();
  EXPECT_THROW(stream.feed(bad), CorruptSignal);
  EXPECT_EQ(metrics.corrupt_samples->value(), 2u);
  EXPECT_EQ(stream.samples_consumed(), 0u);  // state untouched
}

TEST_F(FaultsSuite, WholeTraceJobsRejectNonFiniteSamples) {
  // Whole-trace jobs fail with the stream's typed error instead of letting
  // the NaN reach the scores and silently move detections.
  std::vector<float> bad(eval_->samples);
  bad[bad.size() / 2] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_THROW(locator_->locate(bad), CorruptSignal);

  api::Engine engine({.workers = 2});
  engine.attach_model(*locator_);
  auto session = engine.open_session();
  api::RetryConfig rc;
  rc.max_attempts = 3;
  rc.jitter_seed = 5;
  rc.sleep = [](std::chrono::nanoseconds) {};
  std::size_t calls = 0;
  try {
    api::with_retry(
        [&] {
          ++calls;
          return session.submit_view(bad).get();
        },
        rc);
    FAIL() << "expected CorruptSignal";
  } catch (const CorruptSignal& e) {
    EXPECT_FALSE(is_transient(e));
  }
  EXPECT_EQ(calls, 1u);  // terminal: with_retry does not resubmit it
}

// ---------------------------------------------------------------------------
// Artifact read faults + retry
// ---------------------------------------------------------------------------

TEST_F(FaultsSuite, TruncatedArtifactReadFailsTypedAndRetrySucceeds) {
  auto& injector = runtime::FaultInjector::instance();
  runtime::FaultSpec spec;
  spec.action = runtime::FaultSpec::Action::kTruncate;
  spec.truncate_fraction = 0.5;
  spec.times = 1;
  injector.arm("artifact.read", spec);

  // First read sees half the file mid-"download": typed and transient.
  try {
    api::load_artifact(*artifact_);
    FAIL() << "expected ArtifactTruncated";
  } catch (const api::ArtifactTruncated& e) {
    EXPECT_TRUE(is_transient(e));
  }

  // The canonical recovery: retry after the writer finished. The injector
  // fires once, so the with_retry attempt #2 reads the full file.
  injector.arm("artifact.read", spec);
  obs::Registry registry;
  api::RetryConfig rc;
  rc.max_attempts = 3;
  rc.initial_backoff = 1ms;
  rc.jitter_seed = 7;
  rc.registry = &registry;
  const auto loaded = api::with_retry(
      [&] { return api::load_artifact(*artifact_); }, rc);
  EXPECT_EQ(loaded.locate(eval_->samples), *offline_);
  EXPECT_EQ(registry.counter("api.retries").value(), 1u);
  EXPECT_EQ(injector.injected("artifact.read"), 1u);
}

TEST_F(FaultsSuite, WithRetryRetriesOnlyTransientErrors) {
  std::size_t sleeps = 0;
  api::RetryConfig rc;
  rc.max_attempts = 4;
  rc.initial_backoff = 10ms;
  rc.jitter_seed = 11;
  rc.sleep = [&](std::chrono::nanoseconds delay) {
    ++sleeps;
    EXPECT_GE(delay, 5ms);   // jitter stays within [backoff/2, backoff]
    EXPECT_LE(delay, 80ms);  // last backoff: 10ms * 2^2, jittered below cap
  };

  // Transient failures are retried until success...
  int calls = 0;
  const int result = api::with_retry(
      [&] {
        if (++calls < 3) throw Overloaded("synthetic");
        return 42;
      },
      rc);
  EXPECT_EQ(result, 42);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(sleeps, 2u);

  // ...but never past max_attempts,
  calls = 0;
  EXPECT_THROW(api::with_retry(
                   [&]() -> int {
                     ++calls;
                     throw DeadlineExceeded("synthetic");
                   },
                   rc),
               DeadlineExceeded);
  EXPECT_EQ(calls, 4);

  // ...and terminal errors propagate on the FIRST throw: retrying a
  // cancellation would resurrect abandoned work, and a mismatched artifact
  // stays mismatched forever.
  calls = 0;
  EXPECT_THROW(api::with_retry(
                   [&]() -> int {
                     ++calls;
                     throw Cancelled("synthetic");
                   },
                   rc),
               Cancelled);
  EXPECT_EQ(calls, 1);
  calls = 0;
  EXPECT_THROW(api::with_retry(
                   [&]() -> int {
                     ++calls;
                     throw api::ArtifactArchMismatch("synthetic");
                   },
                   rc),
               api::ArtifactArchMismatch);
  EXPECT_EQ(calls, 1);
}

// ---------------------------------------------------------------------------
// End-to-end accounting through the Engine
// ---------------------------------------------------------------------------

TEST_F(FaultsSuite, RetriedInjectedFaultsReconcileWithObsCounters) {
  obs::Registry registry;
  api::EngineConfig ec;
  ec.workers = 2;
  ec.registry = &registry;
  api::Engine engine(ec);
  engine.attach_model(*locator_);
  auto session = engine.open_session();

  // The Engine names the model's fault site after its metric prefix.
  const std::string site =
      "engine." + api::metric_model_name(crypto::CipherId::kCamellia128) +
      ".job";
  auto& injector = runtime::FaultInjector::instance();
  runtime::FaultSpec spec;
  spec.action = runtime::FaultSpec::Action::kThrow;
  spec.times = 3;
  injector.arm(site, spec);

  api::RetryConfig rc;
  rc.max_attempts = 5;
  rc.initial_backoff = 1ms;
  rc.jitter_seed = 13;
  rc.registry = &registry;

  // Every request succeeds despite three injected worker faults...
  for (int i = 0; i < 6; ++i) {
    const auto starts = api::with_retry(
        [&] { return session.submit_view(eval_span()).get(); }, rc);
    EXPECT_EQ(starts, *offline_);
  }

  // ...and the books reconcile exactly: one retry per injected fault, one
  // completed job per request (original or retry), zero unexplained errors.
  // A resolved future only proves the result landed; drain() waits for the
  // worker-side accounting so the counter reads are not racy.
  session.drain();
  const auto injected = injector.injected(site);
  EXPECT_EQ(injected, 3u);
  EXPECT_EQ(registry.counter("api.retries").value(), injected);
  const auto& m = session.metrics();
  EXPECT_EQ(m.requests->value(), 6u + injected);
  EXPECT_EQ(m.completed->value(), 6u + injected);
  EXPECT_EQ(m.rejected->value(), 0u);
  EXPECT_EQ(m.queue_depth->value(), 0);
}

TEST_F(FaultsSuite, CounterIdentitiesHoldUnderMixedChaos) {
  // Mixed storm: worker throws + reject-when-full + expiring deadlines, all
  // at once. Afterwards every request must be accounted for exactly once:
  //   requests == accepted + rejected, completed == accepted.
  auto& injector = runtime::FaultInjector::instance();
  runtime::FaultSpec spec;
  spec.action = runtime::FaultSpec::Action::kThrow;
  spec.skip = 2;
  spec.times = 4;
  injector.arm(kJobSite, spec);

  obs::Registry registry;
  api::EngineConfig cfg;
  cfg.workers = 2;
  cfg.max_queue_depth = 4;
  cfg.admission = api::AdmissionPolicy::kRejectWhenFull;
  cfg.registry = &registry;
  api::Engine engine(cfg);
  engine.attach_model(*locator_);
  auto session = engine.open_session();

  constexpr std::size_t kRequests = 24;
  std::size_t ok = 0, injected_seen = 0, overloaded = 0, deadline = 0;
  std::vector<std::future<std::vector<std::size_t>>> futures;
  for (std::size_t i = 0; i < kRequests; ++i) {
    api::SubmitOptions options;
    if (i % 5 == 0) options.timeout = 1us;  // some of these will expire
    try {
      futures.push_back(session.submit_view(eval_span(), options));
    } catch (const Overloaded&) {
      ++overloaded;
    }
  }
  for (auto& f : futures) {
    try {
      EXPECT_EQ(f.get(), *offline_);
      ++ok;
    } catch (const runtime::InjectedFault&) {
      ++injected_seen;
    } catch (const DeadlineExceeded&) {
      ++deadline;
    }
  }
  session.drain();

  // No untyped escapes: every submit's fate is one of the four buckets.
  const auto& m = session.metrics();
  EXPECT_EQ(ok + injected_seen + deadline, futures.size());
  EXPECT_EQ(injected_seen, injector.injected(kJobSite));
  EXPECT_EQ(m.completed->value(), accepted(session));
  // Rejections = synchronous Overloaded throws + any timeout that expired
  // at submit itself (counted rejected, surfaced through the future).
  EXPECT_GE(m.rejected->value(), overloaded);
  // The caller's registry holds the model's instruments: every submit call
  // is one request, accepted or rejected.
  EXPECT_EQ(registry.counter("engine.camellia.requests").value(), kRequests);
  EXPECT_EQ(registry.counter("engine.camellia.requests").value(),
            accepted(session) + m.rejected->value());
  EXPECT_EQ(registry.counter("engine.camellia.completed").value(),
            m.completed->value());
  EXPECT_EQ(registry.gauge("engine.camellia.queue_depth").value(), 0);
  EXPECT_GE(m.deadline_exceeded->value(), deadline);
}

}  // namespace
}  // namespace scalocate
