// scalocate::api facade tests: versioned artifact round-trip + corruption
// handling (distinct structured error per failure mode), train-once/
// serve-anywhere parity through Engine/Session for whole-trace and
// streamed workloads, backpressure, cancellation, and the multi-model
// registry.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <thread>

#include "api/scalocate.hpp"
#include "trace/scenario.hpp"

namespace scalocate {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const char* name) {
  return (fs::temp_directory_path() / name).string();
}

std::vector<char> read_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(is),
                           std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream os(path, std::ios::binary);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Streams `samples` through an api::Stream in `chunk`-sized pieces
/// (poll style) and returns every detection start.
std::vector<std::size_t> stream_starts(api::Session& session,
                                       std::span<const float> samples,
                                       std::size_t chunk) {
  auto stream = session.open_stream();
  std::vector<std::size_t> starts;
  for (std::size_t off = 0; off < samples.size(); off += chunk) {
    const std::size_t n = std::min(chunk, samples.size() - off);
    for (const auto& d : stream.feed(samples.subspan(off, n)))
      starts.push_back(d.start);
  }
  for (const auto& d : stream.finish()) starts.push_back(d.start);
  return starts;
}

// ---------------------------------------------------------------------------
// Trained fixture shared by every api test (training is the expensive part,
// so it runs once per suite). Thresh is fixed so offline, streamed, and
// artifact-loaded paths share one decision boundary.
// ---------------------------------------------------------------------------

class ApiFacade : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    key_ = new crypto::Key16{};
    for (int i = 0; i < 16; ++i)
      (*key_)[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(0x30 + i);

    sc_ = new trace::ScenarioConfig{};
    sc_->cipher = crypto::CipherId::kCamellia128;  // shortest CO: fast suite
    sc_->random_delay = trace::RandomDelayConfig::kRd2;
    sc_->seed = 404;

    auto acq = trace::acquire_cipher_traces(*sc_, 224, *key_);
    auto noise = trace::acquire_noise_trace(*sc_, 60000);

    core::LocatorConfig lc;
    lc.params = core::PipelineParams::defaults_for(sc_->cipher);
    lc.params.sizes = {224, 160, 96};
    lc.params.epochs = 6;
    lc.params.threshold = 0.0f;
    locator_ = new core::CoLocator(lc);
    locator_->train(acq, noise);

    artifact_ = new std::string(temp_path("scalocate_api_model.scart"));
    locator_->export_artifact(*artifact_);

    eval_ = new trace::Trace(trace::acquire_eval_trace(*sc_, 8, *key_, false));
    offline_ = new std::vector<std::size_t>(locator_->locate(eval_->samples));
  }

  static void TearDownTestSuite() {
    std::remove(artifact_->c_str());
    delete offline_;
    delete eval_;
    delete artifact_;
    delete locator_;
    delete sc_;
    delete key_;
  }

  /// Copies the pristine artifact, applies `mutate` to the bytes, and
  /// returns the mutated file's path.
  static std::string mutated_artifact(
      const char* name, const std::function<void(std::vector<char>&)>& mutate) {
    auto bytes = read_bytes(*artifact_);
    mutate(bytes);
    const auto path = temp_path(name);
    write_bytes(path, bytes);
    return path;
  }

  static crypto::Key16* key_;
  static trace::ScenarioConfig* sc_;
  static core::CoLocator* locator_;
  static std::string* artifact_;
  static trace::Trace* eval_;
  static std::vector<std::size_t>* offline_;
};

crypto::Key16* ApiFacade::key_ = nullptr;
trace::ScenarioConfig* ApiFacade::sc_ = nullptr;
core::CoLocator* ApiFacade::locator_ = nullptr;
std::string* ApiFacade::artifact_ = nullptr;
trace::Trace* ApiFacade::eval_ = nullptr;
std::vector<std::size_t>* ApiFacade::offline_ = nullptr;

TEST_F(ApiFacade, BaselineDetectsSomething) {
  ASSERT_FALSE(offline_->empty());
}

// ---------------------------------------------------------------------------
// Artifact round-trip
// ---------------------------------------------------------------------------

TEST_F(ApiFacade, RoundTripIsByteIdentical) {
  // save -> load -> save must reproduce the file bit for bit: every config
  // field, calibration value, weight, and buffer survives the trip.
  auto loaded = api::load_artifact(*artifact_);
  const auto second = temp_path("scalocate_api_rt.scart");
  loaded.export_artifact(second);
  EXPECT_EQ(read_bytes(*artifact_), read_bytes(second));
  std::remove(second.c_str());
}

TEST_F(ApiFacade, LoadedLocatorIsReadyToServe) {
  auto loaded = api::load_artifact(*artifact_);
  EXPECT_TRUE(loaded.is_trained());
  EXPECT_EQ(loaded.calibration_offset(), locator_->calibration_offset());
  EXPECT_DOUBLE_EQ(loaded.mean_co_length(), locator_->mean_co_length());
  EXPECT_EQ(loaded.calibrated_threshold(), locator_->calibrated_threshold());
  ASSERT_EQ(loaded.fine_template().size(), locator_->fine_template().size());
  // Bit-identical detections without any retraining.
  EXPECT_EQ(loaded.locate(eval_->samples), *offline_);
}

// ---------------------------------------------------------------------------
// Corruption: each failure mode raises its own scalocate::Error subtype.
// ---------------------------------------------------------------------------

TEST_F(ApiFacade, TruncatedArtifactThrowsTruncated) {
  const auto full = read_bytes(*artifact_);
  ASSERT_GT(full.size(), 64u);
  // Cut in the header, mid-config, mid-weights, and just before the end
  // marker; every cut must surface as ArtifactTruncated, never a crash or
  // a silently garbage model.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{5}, std::size_t{40}, full.size() / 2,
        full.size() - 4}) {
    auto bytes = full;
    bytes.resize(keep);
    const auto path = temp_path("scalocate_api_trunc.scart");
    write_bytes(path, bytes);
    EXPECT_THROW(api::load_artifact(path), api::ArtifactTruncated)
        << "truncated to " << keep << " bytes";
    std::remove(path.c_str());
  }
}

TEST_F(ApiFacade, BadMagicThrowsBadMagic) {
  const auto path = mutated_artifact("scalocate_api_magic.scart",
                                     [](std::vector<char>& b) { b[0] ^= 0x5a; });
  EXPECT_THROW(api::load_artifact(path), api::ArtifactBadMagic);
  std::remove(path.c_str());
}

TEST_F(ApiFacade, WrongVersionThrowsVersionMismatch) {
  const auto path =
      mutated_artifact("scalocate_api_ver.scart", [](std::vector<char>& b) {
        b[api::kVersionOffset] = 99;  // future format version
      });
  EXPECT_THROW(api::load_artifact(path), api::ArtifactVersionMismatch);
  std::remove(path.c_str());
}

/// Recomputes and patches the integrity trailer after a byte edit, so the
/// mutation reaches the field validation instead of tripping the checksum.
void refresh_checksum(std::vector<char>& b) {
  const auto crc =
      api::artifact_checksum({b.data() + 8, b.size() - 8 - api::kTrailerBytes});
  std::memcpy(b.data() + b.size() - api::kTrailerBytes, &crc, sizeof(crc));
}

TEST_F(ApiFacade, ArchitectureMismatchThrowsArchMismatch) {
  // Grow the declared kernel size (with a valid checksum): the descriptor
  // then disagrees with the conv parameter shapes in the weight payload.
  const auto path =
      mutated_artifact("scalocate_api_arch.scart", [](std::vector<char>& b) {
        b[api::kCnnKernelSizeOffset] =
            static_cast<char>(b[api::kCnnKernelSizeOffset] + 1);
        refresh_checksum(b);
      });
  EXPECT_THROW(api::load_artifact(path), api::ArtifactArchMismatch);
  std::remove(path.c_str());
}

TEST_F(ApiFacade, CorruptedWeightByteThrowsChecksumMismatch) {
  // A flipped bit deep inside the weight payload keeps the file perfectly
  // well-formed; only the CRC trailer can catch it.
  const auto path =
      mutated_artifact("scalocate_api_crc.scart", [](std::vector<char>& b) {
        b[b.size() - 40] ^= 0x01;
      });
  EXPECT_THROW(api::load_artifact(path), api::ArtifactChecksumMismatch);
  std::remove(path.c_str());
}

TEST_F(ApiFacade, OversizedDescriptorIsRejectedBeforeAllocation) {
  // A hostile descriptor implying a weight tensor far larger than the file
  // must fail cleanly (no giant allocation, no bad_alloc escaping).
  const auto path =
      mutated_artifact("scalocate_api_huge.scart", [](std::vector<char>& b) {
        b[api::kCnnConfigOffset + 1] = 0x10;      // base_filters ~ 4096
        b[api::kCnnKernelSizeOffset + 2] = 0x08;  // kernel_size ~ 512k
        refresh_checksum(b);
      });
  EXPECT_THROW(api::load_artifact(path), api::ArtifactError);
  std::remove(path.c_str());
}

TEST_F(ApiFacade, AllArtifactErrorsShareOneBase) {
  const auto path = mutated_artifact("scalocate_api_base.scart",
                                     [](std::vector<char>& b) { b[0] ^= 1; });
  // Deployments can catch the whole family at one boundary.
  EXPECT_THROW(api::load_artifact(path), api::ArtifactError);
  EXPECT_THROW(api::load_artifact(path), Error);
  std::remove(path.c_str());
}

TEST_F(ApiFacade, ExportRequiresTrainedLocator) {
  core::LocatorConfig lc;
  lc.params = core::PipelineParams::defaults_for(sc_->cipher);
  const core::CoLocator untrained(lc);
  EXPECT_THROW(untrained.export_artifact(temp_path("scalocate_api_untrained")),
               InvalidArgument);
}

// ---------------------------------------------------------------------------
// Engine/Session: train-once/serve-anywhere parity
// ---------------------------------------------------------------------------

TEST_F(ApiFacade, EngineServesLoadedArtifactWithIdenticalDetections) {
  api::Engine engine({.workers = 2});
  const auto cipher = engine.load_artifact(*artifact_);
  EXPECT_EQ(cipher, sc_->cipher);
  EXPECT_TRUE(engine.has_model(cipher));

  const auto models = engine.models();
  ASSERT_EQ(models.size(), 1u);
  EXPECT_EQ(models[0].cipher, sc_->cipher);
  EXPECT_EQ(models[0].n_inf, locator_->config().params.n_inf);

  auto session = engine.open_session(cipher);
  EXPECT_EQ(session.submit(eval_->samples).get(), *offline_);
  EXPECT_EQ(session.submit_view(eval_->samples).get(), *offline_);
}

TEST_F(ApiFacade, StreamedSessionMatchesOfflineAcrossChunkSizes) {
  // The streaming-vs-offline parity suite, routed through the facade and a
  // freshly loaded artifact instead of the in-process trained locator.
  api::Engine engine({.workers = 1});
  engine.load_artifact(*artifact_);
  auto session = engine.open_session();
  const std::span<const float> samples(eval_->samples);
  ASSERT_LT(48u, locator_->config().params.n_inf);
  for (const std::size_t chunk :
       {std::size_t{48}, std::size_t{256}, std::size_t{4096}, samples.size()})
    EXPECT_EQ(stream_starts(session, samples, chunk), *offline_)
        << "chunk " << chunk;
}

TEST_F(ApiFacade, StreamCallbackDeliversSameDetections) {
  api::Engine engine({.workers = 1});
  engine.attach_model(*locator_);
  auto stream = engine.open_session().open_stream();
  std::vector<std::size_t> pushed;
  stream.on_detection([&](const api::Detection& d) { pushed.push_back(d.start); });
  const std::span<const float> samples(eval_->samples);
  for (std::size_t off = 0; off < samples.size(); off += 1024) {
    // With a callback installed, feed() must not double-report.
    EXPECT_TRUE(
        stream
            .feed(samples.subspan(off,
                                  std::min<std::size_t>(1024, samples.size() - off)))
            .empty());
  }
  EXPECT_TRUE(stream.finish().empty());
  EXPECT_EQ(pushed, *offline_);
}

TEST_F(ApiFacade, ThrowingCallbackKeepsDetectionsQueued) {
  // Delivery is at-least-once: a handler that throws aborts the delivery
  // loop, but the detection it choked on stays queued and arrives again on
  // the next feed — nothing is silently dropped.
  api::Engine engine({.workers = 1});
  engine.attach_model(*locator_);
  auto stream = engine.open_session().open_stream();
  std::vector<std::size_t> delivered;
  bool fail_once = true;
  stream.on_detection([&](const api::Detection& d) {
    if (fail_once) {
      fail_once = false;
      throw std::runtime_error("handler hiccup");
    }
    delivered.push_back(d.start);
  });
  const std::span<const float> samples(eval_->samples);
  std::size_t throws = 0;
  for (std::size_t off = 0; off < samples.size(); off += 1024) {
    try {
      stream.feed(samples.subspan(off,
                                  std::min<std::size_t>(1024, samples.size() - off)));
    } catch (const std::runtime_error&) {
      ++throws;
    }
  }
  stream.finish();
  EXPECT_EQ(throws, 1u);
  EXPECT_EQ(delivered, *offline_);
}

TEST_F(ApiFacade, ConcurrentInlineStreamsMatchOffline) {
  // Many streams on one model: 4 threads each feed 2 streams of one session
  // round-robin, with mixed chunk sizes. Every stream scores inline on its
  // feeding thread against the shared model, so each must equal the offline
  // reference however chunks and threads interleave. Part of the TSan CI
  // job's test set, so the shared model is also checked for data races.
  ASSERT_FALSE(offline_->empty());
  api::Engine engine({.workers = 1});
  engine.attach_model(*locator_);
  const auto session = engine.open_session();
  const std::span<const float> samples(eval_->samples);
  const std::size_t chunks[] = {48, 97, 331, 1024, samples.size()};
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kStreamsPerThread = 2;
  std::vector<std::vector<std::size_t>> got(kThreads * kStreamsPerThread);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<api::Stream> streams;
      std::vector<std::size_t> offsets(kStreamsPerThread, 0);
      for (std::size_t k = 0; k < kStreamsPerThread; ++k)
        streams.push_back(session.open_stream());
      bool progress = true;
      while (progress) {
        progress = false;
        for (std::size_t k = 0; k < kStreamsPerThread; ++k) {
          const std::size_t id = t * kStreamsPerThread + k;
          if (offsets[k] >= samples.size()) continue;
          const std::size_t n = std::min(chunks[id % std::size(chunks)],
                                         samples.size() - offsets[k]);
          for (const auto& d : streams[k].feed(samples.subspan(offsets[k], n)))
            got[id].push_back(d.start);
          offsets[k] += n;
          progress = true;
        }
      }
      for (std::size_t k = 0; k < kStreamsPerThread; ++k)
        for (const auto& d : streams[k].finish())
          got[t * kStreamsPerThread + k].push_back(d.start);
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::size_t id = 0; id < got.size(); ++id)
    EXPECT_EQ(got[id], *offline_) << "stream " << id;
}

TEST_F(ApiFacade, StreamResetStartsOver) {
  // reset() discards the stream's state, mid-trace or after finish(); each
  // replay then matches the offline reference.
  api::Engine engine({.workers = 1});
  engine.attach_model(*locator_);
  auto stream = engine.open_session().open_stream();
  const std::span<const float> samples(eval_->samples);
  stream.feed(samples.first(samples.size() / 2));
  for (int pass = 0; pass < 2; ++pass) {
    stream.reset();
    std::vector<std::size_t> got;
    for (const auto& d : stream.feed(samples)) got.push_back(d.start);
    for (const auto& d : stream.finish()) got.push_back(d.start);
    EXPECT_EQ(got, *offline_) << "pass " << pass;
  }
}

TEST_F(ApiFacade, StreamOutlivesItsEngine) {
  // A Stream uses neither the Engine's pool nor its queue, so it stays
  // valid after the Engine is gone, still recording into the Engine's
  // private registry.
  std::optional<api::Stream> stream;
  {
    api::Engine engine({.workers = 1});
    engine.attach_model(*locator_);
    stream.emplace(engine.open_session().open_stream());
  }
  std::vector<std::size_t> starts;
  const std::span<const float> samples(eval_->samples);
  for (std::size_t off = 0; off < samples.size(); off += 4096)
    for (const auto& d : stream->feed(
             samples.subspan(off, std::min<std::size_t>(4096, samples.size() - off))))
      starts.push_back(d.start);
  for (const auto& d : stream->finish()) starts.push_back(d.start);
  EXPECT_EQ(starts, *offline_);
}

TEST_F(ApiFacade, OpenSessionWithoutModelThrows) {
  api::Engine engine({.workers = 1});
  EXPECT_THROW(engine.open_session(), InvalidArgument);
  EXPECT_THROW(engine.open_session(crypto::CipherId::kAes128), InvalidArgument);
  EXPECT_FALSE(engine.has_model(crypto::CipherId::kAes128));
}

TEST_F(ApiFacade, EngineServesMultipleCiphersSideBySide) {
  // A second (deliberately tiny) model for a different cipher: the registry
  // must route each session to its own cipher's model.
  auto noise = trace::acquire_noise_trace(*sc_, 20000);
  trace::ScenarioConfig sc2 = *sc_;
  sc2.cipher = crypto::CipherId::kAes128;
  auto acq2 = trace::acquire_cipher_traces(sc2, 96, *key_);

  core::LocatorConfig lc;
  lc.params = core::PipelineParams::defaults_for(sc2.cipher);
  lc.params.sizes = {64, 64, 32};
  lc.params.epochs = 1;  // quality is irrelevant here, only routing
  core::CoLocator aes(lc);
  aes.train(acq2, noise);

  api::Engine engine({.workers = 2});
  engine.attach_model(*locator_);
  engine.add_model(std::move(aes));

  ASSERT_EQ(engine.models().size(), 2u);
  EXPECT_TRUE(engine.has_model(crypto::CipherId::kCamellia128));
  EXPECT_TRUE(engine.has_model(crypto::CipherId::kAes128));
  // Per-request model selection by cipher.
  EXPECT_EQ(engine.open_session(crypto::CipherId::kCamellia128).cipher(),
            crypto::CipherId::kCamellia128);
  EXPECT_EQ(engine.open_session(crypto::CipherId::kAes128).cipher(),
            crypto::CipherId::kAes128);
  // The ambiguous no-arg overload must refuse.
  EXPECT_THROW(engine.open_session(), InvalidArgument);
  // Both models serve from the one shared pool.
  EXPECT_EQ(engine.open_session(crypto::CipherId::kCamellia128)
                .submit(eval_->samples)
                .get(),
            *offline_);
}

// ---------------------------------------------------------------------------
// Backpressure + cancellation
// ---------------------------------------------------------------------------

TEST_F(ApiFacade, SubmitBlocksAtMaxQueueDepth) {
  constexpr std::size_t kDepth = 2;
  constexpr std::size_t kJobs = 8;
  api::Engine engine({.workers = 1, .max_queue_depth = kDepth});
  engine.attach_model(*locator_);
  auto session = engine.open_session();
  const auto& m = session.metrics();

  std::vector<std::future<std::vector<std::size_t>>> futures;
  futures.reserve(kJobs);
  std::atomic<bool> done{false};
  std::thread producer([&] {
    for (std::size_t j = 0; j < kJobs; ++j)
      futures.push_back(session.submit_view(eval_->samples));
    done = true;
  });

  // While the producer is pushing, in-flight jobs may never exceed the
  // bound: submit blocks instead of queueing unboundedly. The queue_depth
  // gauge counts accepted jobs (queued + running), not blocked submitters.
  std::size_t max_in_flight = 0;
  while (!done.load()) {
    const auto in_flight = static_cast<std::size_t>(m.queue_depth->value());
    max_in_flight = std::max(max_in_flight, in_flight);
    EXPECT_LE(in_flight, kDepth);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  producer.join();
  for (auto& f : futures) EXPECT_EQ(f.get(), *offline_);
  // Futures resolve before the worker-side accounting lands; drain() waits
  // for the books before the exact counter check.
  session.drain();
  EXPECT_EQ(m.completed->value(), kJobs);
  // The bound was actually exercised (the single worker saturated).
  EXPECT_GE(max_in_flight, kDepth - 1);
  EXPECT_LE(m.queue_depth->max(), static_cast<std::int64_t>(kDepth));
  EXPECT_GE(m.queue_depth->max(), static_cast<std::int64_t>(kDepth - 1));
}

TEST_F(ApiFacade, CancelledQueuedJobNeverRuns) {
  api::Engine engine({.workers = 1});
  engine.attach_model(*locator_);
  auto session = engine.open_session();

  // Occupy the single worker, then cancel a queued job before it starts.
  auto running = session.submit(eval_->samples);
  const auto cancel = std::make_shared<std::atomic<bool>>(false);
  auto job = session.submit(eval_->samples, {.cancel = cancel});
  cancel->store(true);

  EXPECT_EQ(running.get(), *offline_);
  EXPECT_THROW(job.get(), Cancelled);
}

TEST_F(ApiFacade, CancelAfterCompletionIsNoOp) {
  api::Engine engine({.workers = 2});
  engine.attach_model(*locator_);
  auto session = engine.open_session();
  const auto cancel = std::make_shared<std::atomic<bool>>(false);
  auto job = session.submit(eval_->samples, {.cancel = cancel});
  const auto starts = job.get();
  cancel->store(true);  // too late: the result already exists
  EXPECT_EQ(starts, *offline_);
}

// ---------------------------------------------------------------------------
// Engine telemetry (obs wiring)
// ---------------------------------------------------------------------------

TEST_F(ApiFacade, EngineMetricsAccountForEveryJob) {
  obs::Registry registry;
  api::Engine engine({.workers = 2, .registry = &registry});
  engine.attach_model(*locator_);
  auto session = engine.open_session();

  constexpr std::size_t kJobs = 10;
  std::vector<std::future<std::vector<std::size_t>>> futures;
  futures.reserve(kJobs);
  for (std::size_t i = 0; i < kJobs; ++i)
    futures.push_back(session.submit_view(eval_->samples));
  for (auto& f : futures) EXPECT_EQ(f.get(), *offline_);

  // A resolved future proves the result, not the bookkeeping — drain()
  // waits for the worker-side accounting. After it the counters are
  // exact: one request = one completion = one latency + one queue-wait
  // sample, nothing cancelled, nothing still in flight.
  session.drain();
  const auto& m = session.metrics();
  EXPECT_EQ(m.requests->value(), kJobs);
  EXPECT_EQ(m.completed->value(), kJobs);
  EXPECT_EQ(m.cancelled->value(), 0u);
  EXPECT_EQ(m.queue_depth->value(), 0);
  EXPECT_GE(m.queue_depth->max(), 1);
  EXPECT_LE(m.queue_depth->max(), static_cast<std::int64_t>(kJobs));
  EXPECT_EQ(m.latency_ns->count(), kJobs);
  EXPECT_EQ(m.queue_wait_ns->count(), kJobs);
  // End-to-end latency includes the queue wait, so the slowest job's
  // latency can never undercut its own wait.
  const auto lat = m.latency_ns->snapshot();
  const auto wait = m.queue_wait_ns->snapshot();
  EXPECT_GE(lat.max, wait.min);

  // The rendered snapshot tells the same story through the JSON spine.
  const auto doc = obs::JsonValue::parse(engine.telemetry_json());
  const auto* completed =
      doc.at_path("counters.engine.camellia.completed");
  ASSERT_NE(completed, nullptr);
  EXPECT_EQ(completed->integer, kJobs);
  EXPECT_DOUBLE_EQ(
      doc.at_path("histograms.engine.camellia.latency_ns.count")->number,
      static_cast<double>(kJobs));
  // And the human rendering mentions the instrument.
  EXPECT_NE(engine.telemetry_text().find("engine.camellia.latency_ns"),
            std::string::npos);
}

TEST_F(ApiFacade, TelemetryIsObservablyFreeOfBehaviorChange) {
  // The same workload through an engine publishing into the caller's
  // registry and one keeping a private registry must produce bit-identical
  // detections: where telemetry goes never perturbs the pipeline.
  obs::Registry registry;
  api::Engine external({.workers = 2, .registry = &registry});
  api::Engine internal({.workers = 2});
  external.attach_model(*locator_);
  internal.attach_model(*locator_);
  auto ext = external.open_session();
  auto own = internal.open_session();

  EXPECT_EQ(ext.submit_view(eval_->samples).get(),
            own.submit_view(eval_->samples).get());
  EXPECT_EQ(stream_starts(ext, eval_->samples, 3000),
            stream_starts(own, eval_->samples, 3000));

  // The private registry counts the job like any other.
  own.drain();
  const auto& m = own.metrics();
  EXPECT_EQ(m.requests->value(), 1u);
  EXPECT_EQ(m.completed->value(), 1u);
  EXPECT_EQ(m.latency_ns->count(), 1u);
}

TEST_F(ApiFacade, StreamMetricsCountSamplesWindowsAndDetections) {
  obs::Registry registry;
  api::Engine engine({.workers = 1, .registry = &registry});
  engine.attach_model(*locator_);
  auto session = engine.open_session();

  const auto streamed = stream_starts(session, eval_->samples, 2048);
  EXPECT_EQ(streamed, *offline_);

  const auto doc = obs::JsonValue::parse(engine.telemetry_json());
  const auto* fed =
      doc.at_path("counters.stream.camellia.samples_fed");
  ASSERT_NE(fed, nullptr) << "open_stream must inherit the engine registry";
  EXPECT_EQ(fed->integer, eval_->samples.size());
  EXPECT_EQ(doc.at_path("counters.stream.camellia.detections")->integer,
            streamed.size());
  EXPECT_GE(doc.at_path("counters.stream.camellia.windows_scored")->integer,
            1u);
  // Every emitted detection logged its emission lag.
  EXPECT_EQ(
      doc.at_path("histograms.stream.camellia.emission_lag_samples.count")
          ->integer,
      streamed.size());
}

// ---------------------------------------------------------------------------
// Hot swap vs in-flight sessions
// ---------------------------------------------------------------------------

TEST_F(ApiFacade, ConcurrentHotSwapNeverDisturbsInFlightSessions) {
  // The hot-swap contract: a Session opened before load_artifact replaces
  // its model keeps the OLD model alive (shared ownership of the entry) and
  // keeps serving bit-identical results; only sessions opened after the
  // swap see the new entry. This hammers that contract concurrently — a
  // swapper thread re-loading the artifact in a loop while submitter
  // threads run jobs through sessions opened before, during, and after
  // swaps. Also part of the TSan CI job's test set, so the shared_ptr
  // handoff is checked for data races, not just for crashes.
  api::Engine engine({.workers = 2});
  engine.load_artifact(*artifact_);

  const std::span<const float> samples(eval_->samples);
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> swaps{0};

  std::thread swapper([&] {
    while (!stop.load()) {
      engine.load_artifact(*artifact_);  // same bits: parity stays provable
      swaps.fetch_add(1);
    }
  });

  std::atomic<std::size_t> jobs{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 2; ++t) {
    submitters.emplace_back([&] {
      while (!stop.load()) {
        // A fresh session each round: taken before or after some swap,
        // nondeterministically — both must serve identical detections.
        auto session = engine.open_session();
        EXPECT_EQ(session.submit_view(samples).get(), *offline_);
        jobs.fetch_add(1);
      }
    });
  }

  // Long enough for many swaps to interleave with many jobs.
  while (swaps.load() < 50 || jobs.load() < 12)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  stop.store(true);
  swapper.join();
  for (auto& t : submitters) t.join();

  // A session pinned BEFORE the final swap still works after many more.
  auto pinned = engine.open_session();
  engine.load_artifact(*artifact_);
  engine.load_artifact(*artifact_);
  EXPECT_EQ(pinned.submit_view(samples).get(), *offline_);
}

// ---------------------------------------------------------------------------
// Failure-model knobs through the facade
// ---------------------------------------------------------------------------

TEST_F(ApiFacade, SessionDeadlinesAndAdmissionSurfaceTypedErrors) {
  api::EngineConfig cfg;
  cfg.workers = 1;
  cfg.max_queue_depth = 1;
  cfg.admission = api::AdmissionPolicy::kRejectWhenFull;
  api::Engine engine(cfg);
  engine.attach_model(*locator_);
  auto session = engine.open_session();

  // An already-expired deadline is refused before any queueing.
  api::SubmitOptions expired;
  expired.deadline = std::chrono::steady_clock::now() - std::chrono::seconds(1);
  EXPECT_THROW(session.submit_view(eval_->samples, expired).get(),
               DeadlineExceeded);

  // At depth, the policy rejects synchronously with a typed transient
  // error — the retry loop's cue to back off.
  auto running = session.submit_view(eval_->samples);
  try {
    while (true) session.submit_view(eval_->samples);  // fills the slot, then throws
  } catch (const Overloaded& e) {
    EXPECT_TRUE(is_transient(e));
  }
  EXPECT_EQ(running.get(), *offline_);
}

}  // namespace
}  // namespace scalocate
