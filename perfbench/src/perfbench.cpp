// perfbench: the repository benchmark.
//
//   perfbench --workload locate|stream --seed N --seconds S --trace 0|1
//             [--models DIR] [--work-dir DIR] [--wrong-reference]
//   perfbench --make-model aes128|camellia128 --models DIR
//   perfbench --record-reference --models DIR
//
// Untraced runs (--trace 0) measure the end-to-end metrics of one
// workload for --seconds; traced runs (--trace 1) run fixed slices of both
// workloads and of a training, and measure every layer from outside (see
// WORKLOADS.md). The last stdout line is the JSON result. Every output is
// checked; any failed check makes the exit code nonzero. perfbench sets no
// SCALOCATE_THREADS and serves through a default EngineConfig; see
// serving_threads() for the intra-op budget of its own threads.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <future>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <thread>

#include "api/engine.hpp"
#include "common.hpp"
#include "core/metrics.hpp"
#include "harness.hpp"
#include "nn/kernels/parallel.hpp"
#include "probes.hpp"
#include "speed.hpp"

namespace perfbench {
namespace {

namespace api = sc::api;
namespace core = sc::core;

// ---------------------------------------------------------------------------
// Workload shapes. Sizes are fixed; only the seed changes the inputs.
// ---------------------------------------------------------------------------
constexpr std::uint64_t kDefaultSeed = 1;      // the seed references record
// A Camellia-128 CO is about 0.57x as long as an AES-128 one and both
// models cost the same per sample, so Camellia captures hold 7 COs to the
// AES captures' 4: locate jobs then cost about the same and their latency
// has one mode. Camellia streams hold 2 COs to AES's 1, so most feeds are
// Camellia feeds and the median feed is not split between two modes.
constexpr std::size_t kLocateCaptures = 8;     // alternating AES / Camellia
constexpr std::size_t kLocateAesCos = 4;
constexpr std::size_t kLocateCamelliaCos = 7;
constexpr std::size_t kStreams = 16;           // 8 per ingest thread
constexpr std::size_t kClients = 2;            // client / ingest threads
constexpr std::size_t kSetupReps = 25;         // set-up is repeated; median
constexpr std::size_t kSetupUnits = 4;         // calibration after each set-up
constexpr double kHitFloor = 0.40;             // share of true COs located
constexpr double kClosureTolerance = 0.25;     // traced layers vs untraced op
constexpr double kNegativeTolerance = 0.10;    // a layer's self time vs op

/// The intra-op budget perfbench's timed calls run at: the one a default
/// Engine gives its own jobs (EngineConfig::intra_op_threads). Session
/// streams and CoLocator::train run on the caller's thread, which otherwise
/// gets the process default (hardware concurrency): every conv then forks
/// and joins, and on a 4-vCPU VM identical stream runs varied from 0.02 to
/// 0.08 Msamples/s and trainings by 25%, so no bound could hold. Untimed
/// references (offline locate) keep the default.
std::size_t serving_threads() { return api::EngineConfig{}.intra_op_threads; }

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string models = "perfbench/models";
  std::string work_dir = ".bench_build/perfbench_tmp";
  bool wrong_reference = false;
  std::string make_model;
  bool record_reference = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") o.workload = value();
    else if (arg == "--seed") o.seed = std::stoull(value());
    else if (arg == "--seconds") o.seconds = std::stod(value());
    else if (arg == "--trace") o.trace = value() == "1";
    else if (arg == "--models") o.models = value();
    else if (arg == "--work-dir") o.work_dir = value();
    else if (arg == "--wrong-reference") o.wrong_reference = true;
    else if (arg == "--make-model") o.make_model = value();
    else if (arg == "--record-reference") o.record_reference = true;
    else usage("unknown argument " + arg);
  }
  if (o.make_model.empty() && !o.record_reference &&
      o.workload != "locate" && o.workload != "stream")
    usage("--workload must be locate or stream");
  if (o.seconds <= 0.0) usage("--seconds must be positive");
  return o;
}

double ms_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e6;
}

// ---------------------------------------------------------------------------
// Inputs and references.
// ---------------------------------------------------------------------------
std::vector<Capture> locate_inputs(std::uint64_t seed) {
  return eval_set(seed, kLocateCaptures, kLocateAesCos, kLocateCamelliaCos);
}
std::vector<Capture> stream_inputs(std::uint64_t seed) {
  return eval_set(mix(seed, 77), kStreams, 1, 2);
}
/// The traced run's training slice: one short AES-128 training.
Campaign slice_campaign(std::uint64_t seed) {
  return train_campaign(CipherId::kAes128, mix(seed, 13), 32, 10000);
}
core::LocatorConfig slice_train_config(std::uint64_t seed) {
  core::LocatorConfig lc = train_config(CipherId::kAes128, mix(seed, 98));
  lc.params.epochs = 1;
  lc.params.sizes = {32, 32, 16};
  lc.calibration_captures = 4;
  return lc;
}

/// Offline CoLocator::locate on every capture (the reference path: a
/// different call than the one under test).
std::vector<std::vector<std::size_t>> offline_reference(
    const Models& models, const std::vector<Capture>& inputs) {
  std::vector<std::vector<std::size_t>> refs;
  for (const Capture& c : inputs)
    refs.push_back(models.at(c.cipher).locate(c.samples));
  return refs;
}

/// Detection digests recorded for the default seed.
struct Recorded {
  std::map<std::string, std::uint64_t> values;
  bool present = false;
  std::optional<std::uint64_t> get(const std::string& key) const {
    auto it = values.find(key);
    if (it == values.end()) return std::nullopt;
    return it->second;
  }
};

std::string reference_path(const Options& o) {
  return o.models + "/reference_seed1.txt";
}

Recorded read_recorded(const Options& o) {
  Recorded r;
  if (o.seed != kDefaultSeed) return r;
  std::ifstream in(reference_path(o));
  if (!in) throw std::runtime_error("missing " + reference_path(o));
  std::string key;
  std::uint64_t value = 0;
  while (in >> key >> value) r.values[key] = value;
  r.present = true;
  return r;
}

/// The CRC-32 trailer of an exported artifact.
std::uint64_t artifact_crc(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  if (bytes.size() < sc::api::kTrailerBytes)
    throw std::runtime_error("short artifact " + path);
  std::uint32_t crc = 0;
  for (std::size_t b = 0; b < 4; ++b)
    crc |= static_cast<std::uint32_t>(static_cast<unsigned char>(
               bytes[bytes.size() - sc::api::kTrailerBytes + b]))
           << (8 * b);
  return crc;
}

// ---------------------------------------------------------------------------
// Serving set-up: one default Engine serving both committed models.
// ---------------------------------------------------------------------------
struct Served {
  std::unique_ptr<api::Engine> engine;  // outlives the sessions below
  std::map<CipherId, api::Session> sessions;
  api::Session session(CipherId c) const { return sessions.at(c); }
};

std::unique_ptr<Served> serve(const Models& models, sc::obs::Registry* reg) {
  api::EngineConfig config;
  config.registry = reg;
  auto s = std::make_unique<Served>();
  s->engine = std::make_unique<api::Engine>(config);
  for (CipherId c : {CipherId::kAes128, CipherId::kCamellia128}) {
    s->engine->load_artifact(models.path(c));
    s->sessions.emplace(c, s->engine->open_session(c));
  }
  return s;
}

struct Setup {
  double median_s = 0.0;
  HostSpeed speed;  ///< calibration run between the set-ups
};

/// Median wall time of kSetupReps set-ups, each followed by kSetupUnits
/// calibration units; the last set-up is kept.
Setup measure_setup(const Models& models, std::unique_ptr<Served>& keep) {
  std::vector<double> s;
  Pacer pacer;
  for (std::size_t r = 0; r < kSetupReps; ++r) {
    keep.reset();
    const std::int64_t t0 = now_ns();
    keep = serve(models, nullptr);
    s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    pacer.run(kSetupUnits);
  }
  return {median(s), pacer.speed()};
}

struct Loop {
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< process CPU time, calibration excluded
  std::size_t samples = 0;
  /// Each thread's samples over its own wall time (start to its last
  /// operation's end, calibration excluded), summed over threads: a thread
  /// still finishing after the other stopped adds no idle time to it.
  double samples_per_s = 0.0;
  HostSpeed speed;  ///< the load threads' calibration, when paced
  std::vector<double> latency_ms;  ///< one per operation
  std::vector<CipherId> op_cipher;  ///< the model each operation used
  std::vector<double> finish_ms;   ///< stream finish() calls
};

/// The Loop of threads that started at `t0` and ended at `end[t]`:
/// `collect(t, loop)` moves thread t's records into the loop and returns
/// its samples. Calibration time and CPU are taken out of the threads'.
template <typename Collect>
Loop tally_loop(std::int64_t t0, double cpu0,
                const std::vector<std::int64_t>& end,
                const std::vector<Pacer>& pacers, Collect&& collect) {
  Loop loop;
  loop.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  loop.cpu_s = cpu_seconds() - cpu0;
  for (std::size_t t = 0; t < end.size(); ++t) {
    const std::size_t samples = collect(t, loop);
    loop.samples += samples;
    loop.samples_per_s +=
        static_cast<double>(samples) * 1e9 /
        static_cast<double>(end[t] - t0 - pacers[t].wall_ns());
    loop.speed.add(pacers[t].speed());
  }
  for (double c : loop.speed.unit_cpu_s) loop.cpu_s -= c;
  return loop;
}

/// Each model's median operation latency, averaged over the models.
/// Operations alternate ciphers and the two models cost different amounts
/// per call (a stream feed ~0.45 ms for Camellia-128, ~0.6 ms for
/// AES-128), so the latencies have one mode per model, about half the
/// operations each: the overall median sits between the modes and jumps
/// from one to the other on a small change in the mix.
double per_model_p50_ms(const Loop& loop) {
  std::map<CipherId, std::vector<double>> by_model;
  for (std::size_t i = 0; i < loop.latency_ms.size(); ++i)
    by_model[loop.op_cipher[i]].push_back(loop.latency_ms[i]);
  double sum = 0.0;
  for (const auto& [cipher, ms] : by_model) sum += median(ms);
  return by_model.empty() ? 0.0 : sum / static_cast<double>(by_model.size());
}

// ---------------------------------------------------------------------------
// locate: 2 closed-loop clients submit whole captures to one Engine.
// ---------------------------------------------------------------------------
struct JobRecord {
  std::size_t input = 0;
  std::vector<std::size_t> detections;
  double latency_ms = 0.0;
  std::string error;  ///< empty = the job returned
};

/// Client c starts at input c * n / 2 and walks the inputs in order (so
/// both clients alternate ciphers). Runs `jobs_per_client` jobs each, or
/// until `seconds` elapse when that is 0; then each client also paces
/// calibration between its jobs. The traced run passes `wrap`, which is
/// called as wrap(client, capture, request id, job) and runs job().
Loop locate_clients(
    const Served& served, const std::vector<Capture>& inputs, double seconds,
    std::size_t jobs_per_client, std::vector<JobRecord>& records,
    const std::function<void(std::size_t, const Capture&, std::uint64_t,
                             const std::function<void()>&)>& wrap = {}) {
  std::vector<std::vector<JobRecord>> per(kClients);
  std::vector<std::int64_t> end(kClients);
  std::vector<Pacer> pacers(kClients);
  const bool paced = jobs_per_client == 0;
  const std::int64_t t0 = now_ns();
  const auto deadline = t0 + static_cast<std::int64_t>(seconds * 1e9);
  const double cpu0 = cpu_seconds();
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::size_t next = c * inputs.size() / kClients;
      for (std::size_t j = 0;
           jobs_per_client > 0 ? j < jobs_per_client : now_ns() < deadline;
           ++j, ++next) {
        const std::size_t input = next % inputs.size();
        const Capture& cap = inputs[input];
        JobRecord rec;
        rec.input = input;
        auto job = [&] {
          const std::int64_t a = now_ns();
          try {
            rec.detections =
                served.session(cap.cipher).submit_view(cap.samples).get();
          } catch (const std::exception& e) {
            rec.error = e.what();
          }
          rec.latency_ms = ms_since(a);
        };
        if (wrap)
          wrap(c, cap, c * 1000000 + j, job);
        else
          job();
        per[c].push_back(std::move(rec));
        if (paced) pacers[c].pace();
      }
      end[c] = now_ns();
    });
  }
  for (auto& t : clients) t.join();
  return tally_loop(t0, cpu0, end, pacers, [&](std::size_t c, Loop& loop) {
    std::size_t samples = 0;
    for (auto& r : per[c]) {
      samples += inputs[r.input].samples.size();
      loop.latency_ms.push_back(r.latency_ms);
      loop.op_cipher.push_back(inputs[r.input].cipher);
      records.push_back(std::move(r));
    }
    return samples;
  });
}

/// For each model, one job per pool worker, submitted together so every
/// worker runs one: each (model, worker) scratch is sized before timing,
/// so no timed job pays a cold worker's first-use allocations.
void warm_up_workers(const Served& served, const std::vector<Capture>& inputs) {
  for (const auto& [cipher, session] : served.sessions) {
    const auto cap = std::find_if(inputs.begin(), inputs.end(),
                                  [c = cipher](const Capture& x) {
                                    return x.cipher == c;
                                  });
    std::vector<std::future<std::vector<std::size_t>>> jobs;
    for (std::size_t w = 0; w < served.engine->worker_count(); ++w)
      jobs.push_back(served.session(cipher).submit_view(cap->samples));
    for (auto& j : jobs) j.get();
  }
}

/// Checks each job against its reference; with a recorded table (default
/// seed) also against the recorded digest. Returns detections counted.
std::size_t check_jobs(const std::vector<JobRecord>& records,
                       const std::vector<std::vector<std::size_t>>& refs,
                       const Recorded& recorded, const std::string& prefix,
                       Tally& tally) {
  std::size_t detections = 0;
  for (const JobRecord& r : records) {
    bool ok = r.error.empty() && r.detections == refs[r.input];
    if (recorded.present) {
      const auto want = recorded.get(prefix + std::to_string(r.input));
      ok = ok && want && *want == digest(r.detections);
    }
    detections += r.detections.size();
    tally.check(ok, prefix + std::to_string(r.input) +
                        (r.error.empty() ? "" : ": " + r.error));
  }
  return detections;
}

/// Hit share of the references against the ground truth.
std::pair<std::size_t, std::size_t> hits(
    const Models& models, const std::vector<Capture>& inputs,
    const std::vector<std::vector<std::size_t>>& refs) {
  std::size_t hit = 0;
  std::size_t total = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto s = core::score_hits(
        refs[i], inputs[i].truth,
        models.at(inputs[i].cipher).config().params.n_inf);
    hit += s.hits;
    total += s.true_cos;
  }
  return {hit, total};
}

void corrupt(std::vector<std::vector<std::size_t>>& refs) {
  for (auto& r : refs) r.push_back(0);
}

// ---------------------------------------------------------------------------
// stream: 2 ingest threads trickle stride-sized chunks into Session streams.
// ---------------------------------------------------------------------------
struct StreamRecord {
  std::size_t input = 0;
  std::size_t fed = 0;  ///< samples fed before finish()
  std::vector<std::size_t> detections;
  std::string error;
};

std::size_t stride_of(const Models& models, CipherId c) {
  return models.at(c).config().params.stride;
}

/// Thread t owns inputs [t*n/2, (t+1)*n/2) and visits them round-robin,
/// feeding one stride-sized chunk per visit and waiting for feed() to
/// return. A stream whose capture is exhausted calls finish() and is
/// reopened on its next visit (closed loop). With `one_pass`, each stream
/// runs once; otherwise the loop stops after `seconds`, every open stream
/// is finished on the samples it was fed, and each thread paces
/// calibration between its calls.
Loop stream_ingest(const Served& served, const Models& models,
                   const std::vector<Capture>& inputs, double seconds,
                   bool one_pass, std::vector<StreamRecord>& records) {
  std::vector<std::vector<StreamRecord>> per(kClients);
  std::vector<std::vector<double>> lat(kClients);
  std::vector<std::vector<CipherId>> lat_cipher(kClients);
  std::vector<std::vector<double>> fin(kClients);
  std::vector<std::int64_t> end(kClients);
  std::vector<Pacer> pacers(kClients);
  const std::int64_t t0 = now_ns();
  const auto deadline = t0 + static_cast<std::int64_t>(seconds * 1e9);
  const double cpu0 = cpu_seconds();
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      const sc::nn::kernels::IntraOpGuard budget(serving_threads());
      struct Live {
        std::optional<api::Stream> stream;
        std::size_t pos = 0;
        bool done = false;
        StreamRecord rec;
      };
      const std::size_t lo = t * inputs.size() / kClients;
      const std::size_t hi = (t + 1) * inputs.size() / kClients;
      std::vector<Live> live(hi - lo);
      lat[t].reserve(1 << 16);
      auto finish_stream = [&](Live& l, std::size_t input) {
        const std::int64_t a = now_ns();
        try {
          for (const auto& d : l.stream->finish())
            l.rec.detections.push_back(d.start);
        } catch (const std::exception& e) {
          l.rec.error = e.what();
        }
        fin[t].push_back(ms_since(a));
        if (!one_pass) pacers[t].pace();
        l.rec.input = input;
        l.rec.fed = l.pos;
        per[t].push_back(std::move(l.rec));
        l = Live{};
      };
      bool running = true;
      while (running) {
        std::size_t active = 0;
        for (std::size_t i = lo; i < hi; ++i) {
          Live& l = live[i - lo];
          if (l.done) continue;
          ++active;
          const Capture& cap = inputs[i];
          if (!l.stream) l.stream.emplace(served.session(cap.cipher).open_stream());
          const std::size_t n =
              std::min(stride_of(models, cap.cipher), cap.samples.size() - l.pos);
          const std::int64_t a = now_ns();
          try {
            for (const auto& d : l.stream->feed(
                     std::span<const float>(cap.samples.data() + l.pos, n)))
              l.rec.detections.push_back(d.start);
          } catch (const std::exception& e) {
            l.rec.error = e.what();
          }
          lat[t].push_back(ms_since(a));
          lat_cipher[t].push_back(cap.cipher);
          if (!one_pass) pacers[t].pace();
          l.pos += n;
          if (l.pos == cap.samples.size()) {
            finish_stream(l, i);
            l.done = one_pass;
          }
        }
        running = one_pass ? active > 0 : now_ns() < deadline;
      }
      for (std::size_t i = lo; i < hi; ++i)
        if (live[i - lo].stream) finish_stream(live[i - lo], i);
      end[t] = now_ns();
    });
  }
  for (auto& th : threads) th.join();
  return tally_loop(t0, cpu0, end, pacers, [&](std::size_t t, Loop& loop) {
    loop.latency_ms.insert(loop.latency_ms.end(), lat[t].begin(), lat[t].end());
    loop.op_cipher.insert(loop.op_cipher.end(), lat_cipher[t].begin(),
                          lat_cipher[t].end());
    loop.finish_ms.insert(loop.finish_ms.end(), fin[t].begin(), fin[t].end());
    std::size_t samples = 0;
    for (auto& r : per[t]) {
      samples += r.fed;
      records.push_back(std::move(r));
    }
    return samples;
  });
}

/// Each stream's detections must equal offline locate on exactly the
/// samples it was fed.
std::size_t check_streams(const Models& models,
                          const std::vector<Capture>& inputs,
                          const std::vector<StreamRecord>& records,
                          std::vector<std::vector<std::size_t>> full_refs,
                          const Recorded& recorded, bool wrong, Tally& tally) {
  if (wrong) corrupt(full_refs);
  std::size_t detections = 0;
  for (const StreamRecord& r : records) {
    const Capture& cap = inputs[r.input];
    std::vector<std::size_t> ref;
    if (r.fed == cap.samples.size()) {
      ref = full_refs[r.input];
    } else {
      ref = models.at(cap.cipher).locate(
          std::span<const float>(cap.samples.data(), r.fed));
      if (wrong) ref.push_back(0);
    }
    bool ok = r.error.empty() && r.detections == ref;
    if (recorded.present && r.fed == cap.samples.size()) {
      const auto want = recorded.get("stream" + std::to_string(r.input));
      ok = ok && want && *want == digest(r.detections);
    }
    detections += r.detections.size();
    tally.check(ok, "stream" + std::to_string(r.input) +
                        (r.error.empty() ? "" : ": " + r.error));
  }
  return detections;
}

// ---------------------------------------------------------------------------
// Training: CoLocator::train on one AES-128 RD-2 campaign (traced run only).
// ---------------------------------------------------------------------------
struct TrainRecord {
  double wall_s = 0.0;
  std::uint64_t crc = 0;
  double test_accuracy = 0.0;
  std::string error;
};

/// Trains once, times train() and exports the artifact for its CRC.
TrainRecord train_once(const core::LocatorConfig& config, const Campaign& c,
                       const std::string& artifact_path,
                       const std::function<void(const std::function<void()>&)>&
                           wrap = {}) {
  TrainRecord r;
  core::CoLocator loc(config);
  try {
    const std::int64_t t0 = now_ns();
    core::TrainReport report;
    auto call = [&] { report = loc.train(c.ciphers, c.noise); };
    if (wrap)
      wrap(call);
    else
      call();
    r.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
    r.test_accuracy = report.test_confusion.accuracy();
    loc.export_artifact(artifact_path);
    r.crc = artifact_crc(artifact_path);
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  return r;
}

/// One training-mode forward/backward, so the first timed training does not
/// pay first-use allocations.
void warm_up_training(const core::LocatorConfig& config) {
  auto model = core::build_paper_cnn(config.cnn);
  model->set_training(true);
  const sc::nn::Tensor x({config.params.batch_size, 1, config.params.n_train});
  sc::nn::Workspace ws;
  model->backward(model->forward(x, ws), ws);
}

void check_training(const TrainRecord& r, std::uint64_t want, Tally& tally) {
  tally.check(r.error.empty() && r.crc == want,
              "training crc " + std::to_string(r.crc) +
                  (r.error.empty() ? "" : ": " + r.error));
}

// ---------------------------------------------------------------------------
// Traced slices. Each re-runs a slice of a workload untraced, then traced,
// with spans around every public call; inner calls the library makes
// itself are replayed on the same inputs.
// ---------------------------------------------------------------------------
struct Slice {
  std::size_t ops = 0;
  double untraced_per_op_ns = 0.0;
  double untraced_wall_s = 0.0;
  double traced_wall_s = 0.0;
  std::vector<Span> spans;
};

double sum_duration(const std::vector<Span>& spans, const std::string& name) {
  double ns = 0.0;
  for (const Span& s : spans)
    if (s.name == name) ns += static_cast<double>(s.end_ns - s.start_ns);
  return ns;
}

/// Scratch for replaying one model's inner calls: a classifier and
/// workspaces warmed at construction and kept across calls, so replays pay
/// no first-use allocations the calls under test no longer pay.
struct ModelReplay {
  explicit ModelReplay(const core::CoLocator& l)
      : loc(l),
        cls(l.model(), l.config().params.n_inf, l.config().params.stride) {
    // One full batch through both workspaces sizes them.
    std::vector<float> trace(cls.window() + (cls.batch_size() - 1) * cls.stride());
    for (std::size_t i = 0; i < trace.size(); ++i)
      trace[i] = static_cast<float>(i % 97);
    scores.resize(cls.batch_size());
    cls.score_into(trace, scores, ws);
    loc.model().forward(ws.staging(), fws);
  }
  const core::CoLocator& loc;
  core::SlidingWindowClassifier cls;
  sc::nn::Workspace ws;   ///< the replayed library call
  sc::nn::Workspace fws;  ///< its inner forward, timed separately
  sc::nn::Tensor staged;
  std::vector<float> scores;
};

/// One ModelReplay per (thread, model).
class Replays {
 public:
  explicit Replays(const Models& models) : models_(models) {}
  ModelReplay& at(std::size_t thread, CipherId c) {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = slots_[{thread, c}];
    if (!slot) slot = std::make_unique<ModelReplay>(models_.at(c));
    return *slot;
  }

 private:
  const Models& models_;
  std::mutex mutex_;
  std::map<std::pair<std::size_t, CipherId>, std::unique_ptr<ModelReplay>>
      slots_;
};

/// Standardizes `count` windows (window_at(i)) into r.staged and runs the
/// model on them: the two inner calls of a scoring batch, each its own
/// replayed span under `parent`.
template <typename WindowAt>
void replay_batch(ModelReplay& r, std::size_t count, WindowAt&& window_at,
                  SpanRecorder& rec, std::int64_t parent, std::uint64_t req) {
  const std::size_t n = r.cls.window();
  r.staged.resize({count, 1, n});
  const std::int64_t sid = rec.open("kernels.standardize", parent, req, true);
  for (std::size_t i = 0; i < count; ++i)
    sc::nn::kernels::standardize(window_at(i), r.staged.data() + i * n);
  rec.close(sid);
  const std::int64_t fid = rec.open("nn.forward", parent, req, true);
  r.loc.model().forward(r.staged, r.fws);
  rec.close(fid);
}

/// Replays what one locate job does inside the library: score_into (with
/// its standardize and forward calls timed separately), segment, and the
/// template refine of every raw edge, as CoLocator::locate_detailed does.
void replay_locate(ModelReplay& r, std::span<const float> trace,
                   SpanRecorder& rec, std::int64_t parent, std::uint64_t req,
                   std::size_t& windows, std::size_t& raw_edges) {
  const core::CoLocator& loc = r.loc;
  const auto& p = loc.config().params;
  const std::size_t n = r.cls.num_windows(trace.size());
  core::SlidingWindowResult swc;
  swc.scores.resize(n);
  swc.stride = p.stride;
  swc.window = p.n_inf;
  const std::int64_t cid = rec.open("core.classify", parent, req, true);
  r.cls.score_into(trace, swc.scores, r.ws);
  rec.close(cid);
  for (std::size_t b0 = 0; b0 < n; b0 += r.cls.batch_size()) {
    replay_batch(
        r, std::min(r.cls.batch_size(), n - b0),
        [&](std::size_t i) { return trace.subspan((b0 + i) * p.stride, p.n_inf); },
        rec, cid, req);
  }
  const std::int64_t gid = rec.open("core.segment", parent, req, true);
  const core::Segmentation seg =
      core::Segmenter(loc.segmenter_config()).segment(swc);
  rec.close(gid);
  windows += n;
  raw_edges += seg.co_starts.size();
  if (!loc.config().fine_align || loc.fine_template().empty()) return;
  const auto len = static_cast<std::ptrdiff_t>(loc.fine_template().size());
  const auto radius = static_cast<std::ptrdiff_t>(loc.fine_search_radius());
  const auto size = static_cast<std::ptrdiff_t>(trace.size());
  for (std::size_t raw : seg.co_starts) {
    const std::ptrdiff_t base = std::max<std::ptrdiff_t>(
        0, static_cast<std::ptrdiff_t>(raw) - loc.coarse_offset());
    const std::ptrdiff_t lo = std::max<std::ptrdiff_t>(0, base - radius);
    const std::ptrdiff_t hi = std::min(size - len, base + radius);
    if (hi < lo) continue;
    const std::int64_t rid = rec.open("core.refine", parent, req, true);
    loc.refine_in_region(
        trace.subspan(static_cast<std::size_t>(lo),
                      static_cast<std::size_t>(hi - lo + len)),
        static_cast<std::size_t>(lo));
    rec.close(rid);
  }
}

Slice locate_slice(Models& models, const std::vector<Capture>& inputs,
                   bool own, bool wrong, Tally& tally, Report& report) {
  Slice slice;
  {
    // api: Engine::load_artifact, each model reloaded into one Engine.
    api::Engine engine;
    std::vector<double> ms;
    for (int r = 0; r < 10; ++r)
      for (CipherId c : {CipherId::kAes128, CipherId::kCamellia128}) {
        const std::int64_t t0 = now_ns();
        engine.load_artifact(models.path(c));
        ms.push_back(ms_since(t0));
      }
    report.metric("api.load_artifact_ms", median(ms), "ms");
  }
  sc::obs::Registry registry;  // attached in the traced run only
  auto served = serve(models, &registry);
  auto refs = offline_reference(models, inputs);
  if (wrong) corrupt(refs);
  const std::size_t per_client = inputs.size() / kClients;
  warm_up_workers(*served, inputs);

  std::vector<JobRecord> untraced;
  const Loop u = locate_clients(*served, inputs, 0.0, per_client, untraced);
  slice.untraced_wall_s = u.wall_s;
  slice.ops = u.latency_ms.size();
  double sum_ms = 0.0;
  for (double ms : u.latency_ms) sum_ms += ms;
  slice.untraced_per_op_ns = sum_ms * 1e6 / static_cast<double>(slice.ops);

  SpanRecorder rec;
  std::atomic<std::size_t> windows{0};
  std::atomic<std::size_t> raw_edges{0};
  Replays replays(models);
  std::vector<JobRecord> traced;
  const Loop t = locate_clients(
      *served, inputs, 0.0, per_client, traced,
      [&](std::size_t client, const Capture& cap, std::uint64_t req,
          const std::function<void()>& job) {
        const std::int64_t id = rec.open("api.job", -1, req);
        job();
        rec.close(id);
        // The replay runs under the budget the Engine gives its jobs.
        const sc::nn::kernels::IntraOpGuard guard(serving_threads());
        std::size_t w = 0;
        std::size_t e = 0;
        replay_locate(replays.at(client, cap.cipher), cap.samples, rec, id,
                      req, w, e);
        windows += w;
        raw_edges += e;
      });
  slice.traced_wall_s = t.wall_s;
  slice.spans = rec.spans();
  std::size_t detections = 0;
  for (const auto* set : {&untraced, &traced})
    detections += check_jobs(*set, refs, Recorded{}, "slice_job", tally);
  for (auto& [c, s] : served->sessions) s.drain();

  // api: queue wait (mean of the Engine's histograms) and failed jobs.
  double wait_sum = 0.0;
  double wait_n = 0.0;
  double failed = 0.0;
  for (auto& [c, s] : served->sessions) {
    const auto snap = s.metrics().queue_wait_ns->snapshot();
    wait_sum += static_cast<double>(snap.sum);
    wait_n += static_cast<double>(snap.count);
    const auto& m = s.metrics();
    failed += static_cast<double>(m.rejected->value() + m.shed->value() +
                                  m.deadline_exceeded->value() +
                                  m.cancelled->value());
  }
  report.metric("api.queue_wait_ms", wait_n > 0 ? wait_sum / wait_n / 1e6 : 0.0,
                "ms");
  report.metric("api.jobs_failed", failed, "count");
  const double w = static_cast<double>(windows.load());
  const double edges = static_cast<double>(raw_edges.load());
  std::size_t kept = 0;
  for (const auto& r : traced) kept += r.detections.size();
  report.metric("core.classify_us_per_window",
                sum_duration(slice.spans, "core.classify") / 1e3 / w, "us");
  report.metric("core.segment_us_per_window",
                sum_duration(slice.spans, "core.segment") / 1e3 / w, "us");
  report.metric("core.refine_us_per_edge",
                edges > 0 ? sum_duration(slice.spans, "core.refine") / 1e3 / edges
                          : 0.0,
                "us");
  report.metric("core.kept_per_raw_edge",
                edges > 0 ? static_cast<double>(kept) / edges : 0.0, "ratio");
  std::printf("  locate slice: %zu jobs, %zu detections%s\n", slice.ops,
              detections, own ? " (own workload)" : "");
  return slice;
}

/// Scores `count` windows starting at window `first` exactly as a stream
/// does (score_window_batch in batches of the stream's batch size), with
/// the standardize and forward inside timed separately.
void replay_scoring(ModelReplay& r, std::span<const float> samples,
                    std::size_t first, std::size_t count, SpanRecorder& rec,
                    std::int64_t parent, std::uint64_t req) {
  const auto& p = r.loc.config().params;
  const std::size_t batch = sc::runtime::StreamingConfig{}.batch_size;
  r.scores.resize(batch);
  for (std::size_t b0 = 0; b0 < count; b0 += batch) {
    const std::size_t m = std::min(batch, count - b0);
    auto window_at = [&](std::size_t i) {
      return samples.subspan((first + b0 + i) * p.stride, p.n_inf);
    };
    const std::int64_t cid =
        rec.open("core.score_window_batch", parent, req, true);
    r.cls.score_window_batch(m, window_at, r.scores.data(), r.ws);
    rec.close(cid);
    replay_batch(r, m, window_at, rec, cid, req);
  }
}

Slice stream_slice(Models& models, const std::vector<Capture>& inputs,
                   bool own, bool wrong, Tally& tally, Report& report) {
  Slice slice;
  auto served = serve(models, nullptr);
  const auto refs = offline_reference(models, inputs);

  std::vector<StreamRecord> untraced;
  const Loop u = stream_ingest(*served, models, inputs, 0.0, true, untraced);
  slice.untraced_wall_s = u.wall_s;
  // Operations are feed() and finish() calls.
  slice.ops = u.latency_ms.size() + u.finish_ms.size();
  double sum_ms = 0.0;
  for (const auto* v : {&u.latency_ms, &u.finish_ms})
    for (double ms : *v) sum_ms += ms;
  slice.untraced_per_op_ns = sum_ms * 1e6 / static_cast<double>(slice.ops);

  SpanRecorder rec;
  Replays replays(models);
  std::atomic<std::uint64_t> next_req{0};
  std::atomic<std::size_t> windows{0};
  std::atomic<std::size_t> feeds{0};
  std::vector<std::vector<StreamRecord>> per(kClients);
  const std::int64_t t0 = now_ns();
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      const sc::nn::kernels::IntraOpGuard budget(serving_threads());
      const std::size_t lo = t * inputs.size() / kClients;
      const std::size_t hi = (t + 1) * inputs.size() / kClients;
      for (std::size_t i = lo; i < hi; ++i) {
        const Capture& cap = inputs[i];
        const core::CoLocator& loc = models.at(cap.cipher);
        api::Stream stream = served->session(cap.cipher).open_stream();
        sc::runtime::StreamingLocator shadow(loc);
        StreamRecord r;
        r.input = i;
        std::vector<std::size_t> shadow_det;
        const std::span<const float> all(cap.samples);
        const std::size_t stride = loc.config().params.stride;
        for (std::size_t pos = 0;;) {
          const bool fin = pos == cap.samples.size();
          const std::span<const float> chunk =
              fin ? std::span<const float>()
                  : all.subspan(pos, std::min(stride, cap.samples.size() - pos));
          const std::uint64_t req = next_req++;
          const std::int64_t id =
              rec.open(fin ? "api.finish" : "api.feed", -1, req);
          for (const auto& d : fin ? stream.finish() : stream.feed(chunk))
            r.detections.push_back(d.start);
          rec.close(id);
          const std::size_t before = shadow.windows_scored();
          const std::int64_t rid =
              rec.open(fin ? "runtime.finish" : "runtime.feed", id, req, true);
          for (const auto& d : fin ? shadow.finish() : shadow.feed(chunk))
            shadow_det.push_back(d.start);
          rec.close(rid);
          const std::size_t scored = shadow.windows_scored() - before;
          replay_scoring(replays.at(t, cap.cipher), all, before, scored, rec,
                         rid, req);
          windows += scored;
          if (fin) break;
          ++feeds;
          pos += chunk.size();
        }
        r.fed = cap.samples.size();
        if (shadow_det != r.detections) r.error = "shadow StreamingLocator differs";
        per[t].push_back(std::move(r));
      }
    });
  }
  for (auto& th : threads) th.join();
  slice.traced_wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  slice.spans = rec.spans();
  std::vector<StreamRecord> traced;
  for (auto& v : per)
    for (auto& r : v) traced.push_back(std::move(r));
  std::size_t detections = 0;
  for (const auto* set : {&untraced, &traced})
    detections += check_streams(models, inputs, *set, refs, Recorded{}, wrong,
                                tally);

  const auto self = SpanRecorder::self_by_name(slice.spans);
  const double w = static_cast<double>(windows.load());
  const double f = static_cast<double>(feeds.load());
  report.metric("api.stream_self_us_per_feed", self.at("api.feed") / 1e3 / f,
                "us");
  report.metric("runtime.windows_scored", w, "count");
  std::size_t traced_detections = 0;
  for (const auto& r : traced) traced_detections += r.detections.size();
  report.metric("runtime.detections", static_cast<double>(traced_detections),
                "count");
  report.metric("runtime.stream_self_us_per_window",
                (self.at("runtime.feed") + self.at("runtime.finish")) / 1e3 / w,
                "us");
  std::printf("  stream slice: %zu streams, %zu feeds, %zu detections%s\n",
              inputs.size(), static_cast<std::size_t>(f), detections,
              own ? " (own workload)" : "");
  return slice;
}

Slice train_slice(const Campaign& campaign, const core::LocatorConfig& config,
                  const std::string& work_dir, bool wrong, Tally& tally,
                  Report& report) {
  Slice slice;
  const sc::nn::kernels::IntraOpGuard budget(serving_threads());
  warm_up_training(config);
  const TrainRecord u = train_once(config, campaign, work_dir + "/slice_a.slc");
  slice.ops = 1;
  slice.untraced_wall_s = u.wall_s;
  slice.untraced_per_op_ns = u.wall_s * 1e9;

  SpanRecorder rec;
  std::int64_t id = -1;
  const TrainRecord t = train_once(
      config, campaign, work_dir + "/slice_b.slc",
      [&](const std::function<void()>& call) {
        id = rec.open("core.train", -1, 0);
        call();
        rec.close(id);
      });
  // Replays of train()'s inner calls, seeded as CoLocator::train seeds them.
  const std::int64_t bid = rec.open("core.dataset_build", id, 0, true);
  const core::DatasetBuilder datasets(config.params, config.seed ^ 0x6462ULL);
  const core::DatasetSplit split =
      datasets.split(datasets.build(campaign.ciphers, campaign.noise));
  rec.close(bid);
  const std::int64_t fid = rec.open("core.fit", id, 0, true);
  auto model = core::build_paper_cnn(config.cnn);
  core::Trainer(config.params, config.seed ^ 0x7472ULL).fit(*model, split);
  rec.close(fid);
  slice.traced_wall_s = t.wall_s;
  slice.spans = rec.spans();
  // Deterministic training: both runs export the same bytes.
  check_training(u, wrong ? t.crc + 1 : t.crc, tally);
  check_training(t, wrong ? u.crc + 1 : u.crc, tally);

  const auto self = SpanRecorder::self_by_name(slice.spans);
  report.metric("core.dataset_build_s", sum_duration(slice.spans,
                                                     "core.dataset_build") / 1e9,
                "s");
  report.metric("core.fit_s", sum_duration(slice.spans, "core.fit") / 1e9, "s");
  report.metric("core.calibrate_s", self.at("core.train") / 1e9, "s");
  std::printf("  train slice: %zu samples, test accuracy %.3f\n",
              campaign.samples, t.test_accuracy);
  return slice;
}

/// One JSON line per span; ids and parents are local to their slice.
void write_spans(const std::string& path,
                 const std::map<std::string, const Slice*>& slices) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  for (const auto& [name, slice] : slices) {
    const std::vector<Span>& spans = slice->spans;
    const auto self = SpanRecorder::self_times(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "{\"slice\": \"%s\", \"id\": %zu, \"name\": \"%s\", "
                   "\"start_ns\": %lld, \"end_ns\": %lld, \"parent\": %lld, "
                   "\"request\": %llu, \"replay\": %s, \"self_ns\": %lld}\n",
                   name.c_str(), i, s.name.c_str(),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request),
                   s.replay ? "true" : "false",
                   static_cast<long long>(self[i]));
    }
  }
  std::fclose(f);
}

int traced_run(const Options& o) {
  Models models(o.models);
  Tally tally;
  Report report;
  const bool wl = o.workload == "locate";

  // Own slice at the workload's shape; the other slices small.
  const std::vector<Capture> loc_in = wl ? locate_inputs(o.seed)
                                         : eval_set(mix(o.seed, 11), 2, 2, 3);
  std::vector<Capture> str_in = wl ? eval_set(mix(o.seed, 12), 2, 1, 1)
                                   : stream_inputs(o.seed);
  if (!wl) str_in.resize(4);

  std::printf("perfbench traced run: workload %s, seed %llu\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed));
  run_layer_probes(models, loc_in.front(), serving_threads(), report);
  const bool wrong = o.wrong_reference;
  const Slice l = locate_slice(models, loc_in, wl, wrong, tally, report);
  const Slice s = stream_slice(models, str_in, !wl, wrong, tally, report);
  const Slice t = train_slice(slice_campaign(o.seed),
                              slice_train_config(o.seed), o.work_dir, wrong,
                              tally, report);
  const Slice& own = wl ? l : s;

  const auto layers = SpanRecorder::self_by_layer(own.spans);
  const Closure c = check_closure(layers, own.ops, own.untraced_per_op_ns,
                                  kClosureTolerance, kNegativeTolerance);
  std::printf("  layer self time per op (own slice, %zu ops):\n", own.ops);
  for (const auto& [layer, ns] : layers)
    std::printf("    %-10s %14.3f us\n", layer.c_str(),
                ns / 1e3 / static_cast<double>(own.ops));
  std::printf("  closure: layers %.3f us/op vs untraced %.3f us/op (%+.1f%%, "
              "tolerance %.0f%%; no layer below -%.0f%%) %s\n",
              c.layers_per_op_ns / 1e3, c.untraced_per_op_ns / 1e3,
              100.0 * c.error, 100.0 * kClosureTolerance,
              100.0 * kNegativeTolerance, c.ok ? "ok" : "FAILED");
  report.metric("trace.closure_abs_error", std::abs(c.error), "ratio");
  report.metric("trace.overhead_ratio", own.untraced_wall_s / own.traced_wall_s,
                "ratio");
  tally.check(c.ok, "closure");

  write_spans(o.work_dir + "/spans_" + o.workload + ".jsonl",
              {{"locate", &l}, {"stream", &s}, {"train", &t}});

  for (const auto& note : tally.notes())
    std::printf("  FAILED: %s\n", note.c_str());
  std::printf("%s\n", report.json(tally.failed() == 0, tally.attempted(),
                                  tally.failed())
                          .c_str());
  return tally.exit_code();
}

// ---------------------------------------------------------------------------
// Untraced runs.
// ---------------------------------------------------------------------------
void print_latency(const char* what, const std::vector<double>& ms,
                   double scale, const char* unit) {
  std::vector<double> v;
  for (double x : ms) v.push_back(x * scale);
  const LatencySummary s = summarize(v);
  if (s.tail_pm > 0)
    std::printf("  %s p50 %.3f %s, p%.1f %.3f %s over %zu samples\n", what,
                s.p50, unit, static_cast<double>(s.tail_pm) / 10.0, s.tail,
                unit, s.count);
  else
    std::printf("  %s p50 %.3f %s over %zu samples (too few for a tail)\n",
                what, s.p50, unit, s.count);
}

int untraced_run(const Options& o) {
  // Before any thread starts, so all of them inherit it (speed.hpp).
  const std::vector<int> cpus = pin_to_cpus(kClients);
  Models models(o.models);
  const Recorded recorded = read_recorded(o);
  Tally tally;
  Report report;
  std::string cpu_list;
  for (int cpu : cpus) cpu_list += " " + std::to_string(cpu);
  std::printf("perfbench: workload %s, seed %llu, %.0f s; intra-op budget "
              "%zu (process default %zu); CPUs%s\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, serving_threads(),
              sc::nn::kernels::default_intra_op_threads(),
              cpus.empty() ? " not pinned" : cpu_list.c_str());

  const bool locate = o.workload == "locate";
  const auto inputs = locate ? locate_inputs(o.seed) : stream_inputs(o.seed);
  auto refs = offline_reference(models, inputs);
  const auto [hit, total] = hits(models, inputs, refs);
  std::map<CipherId, std::size_t> samples_in;
  for (const auto& c : inputs) samples_in[c.cipher] += c.samples.size();
  std::printf("  inputs: %zu captures (%zu AES-128 + %zu Camellia-128 "
              "samples), %zu true COs; reference hits %zu/%zu\n",
              inputs.size(), samples_in[CipherId::kAes128],
              samples_in[CipherId::kCamellia128], total, hit, total);
  std::unique_ptr<Served> served;
  const Setup setup = measure_setup(models, served);

  Loop loop;
  std::size_t detections = 0;
  if (locate) {
    warm_up_workers(*served, inputs);
    std::vector<JobRecord> jobs;
    loop = locate_clients(*served, inputs, o.seconds, 0, jobs);
    if (o.wrong_reference) corrupt(refs);
    detections = check_jobs(jobs, refs, recorded, "locate", tally);
    std::printf("  %zu jobs, %zu detections\n", jobs.size(), detections);
    print_latency("job latency", loop.latency_ms, 1.0, "ms");
  } else {
    std::vector<StreamRecord> records;
    loop = stream_ingest(*served, models, inputs, o.seconds, false, records);
    detections = check_streams(models, inputs, records, refs, recorded,
                               o.wrong_reference, tally);
    std::printf("  %zu streams finished, %zu detections\n", records.size(),
                detections);
    print_latency("feed", loop.latency_ms, 1e3, "us");
  }
  const double hit_share =
      total > 0 ? static_cast<double>(hit) / static_cast<double>(total) : 0.0;
  const bool quality_ok = hit_share >= kHitFloor && detections > 0;
  if (!quality_ok)
    std::printf("  FAILED: hit share %.3f below %.2f or no detections\n",
                hit_share, kHitFloor);
  // Printed, not a bounded metric: identical locate runs peaked anywhere
  // from 124 to 176 MB, depending on how the pool threads' malloc arenas
  // happened to reuse each other's freed buffers.
  std::printf("  peak RSS %.1f MB\n", peak_rss_mb());
  // Times as measured, then rescaled to the reference host's speed by the
  // calibration run beside them (speed.hpp).
  const double msamples = static_cast<double>(loop.samples) / 1e6;
  const double raw_setup_s = setup.median_s;
  const double raw_msamples_per_s = loop.samples_per_s / 1e6;
  const double raw_cpu_s_per_msample = loop.cpu_s / msamples;
  const double raw_op_p50_ms = per_model_p50_ms(loop);
  const double setup_ratio = setup.speed.wall_ratio(kReferenceUnitS);
  const double wall_ratio = loop.speed.wall_ratio(kReferenceUnitS);
  const double cpu_ratio = loop.speed.cpu_ratio(kReferenceUnitS);
  std::printf("  host speed vs reference: set-up %.4f; loop %.4f by wall, "
              "%.4f by CPU (%zu units)\n",
              setup_ratio, wall_ratio, cpu_ratio,
              loop.speed.unit_wall_s.size());
  std::printf("  as measured: setup %.6f s, %.6f Msamples/s, %.4f "
              "core-s/Msample, op p50 %.4f ms\n",
              raw_setup_s, raw_msamples_per_s, raw_cpu_s_per_msample,
              raw_op_p50_ms);
  std::printf("  (%zu samples in %.3f s wall, %.3f core-s)\n", loop.samples,
              loop.wall_s, loop.cpu_s);
  report.metric("setup_s", raw_setup_s * setup_ratio, "s");
  report.metric("msamples_per_s", raw_msamples_per_s / wall_ratio,
                "Msamples/s");
  report.metric("cpu_s_per_msample", raw_cpu_s_per_msample * cpu_ratio,
                "core-s/Msample");
  report.metric("op_p50_ms", raw_op_p50_ms * wall_ratio, "ms");

  for (const auto& note : tally.notes())
    std::printf("  FAILED: %s\n", note.c_str());
  std::printf("  failed_fraction %.6f (%zu of %zu operations)\n",
              tally.failed_fraction(), tally.failed(), tally.attempted());
  const bool correct = tally.failed() == 0 && quality_ok;
  std::printf("%s\n",
              report.json(correct, tally.attempted(), tally.failed()).c_str());
  return correct ? tally.exit_code() : 1;
}

// ---------------------------------------------------------------------------
// Committed models and their recorded references.
// ---------------------------------------------------------------------------
int make_model(const Options& o) {
  if (o.make_model != "aes128" && o.make_model != "camellia128")
    usage("--make-model aes128|camellia128");
  const CipherId cipher = o.make_model == "aes128" ? CipherId::kAes128
                                                   : CipherId::kCamellia128;
  const std::uint64_t seed = cipher == CipherId::kAes128 ? 0xAE5 : 0xCA3;
  // The budgets of bench_common::train_locator at PipelineParams::defaults_for.
  const Campaign campaign = train_campaign(cipher, seed, 512, 150000);
  core::CoLocator loc(train_config(cipher, seed));
  const core::TrainReport report = loc.train(campaign.ciphers, campaign.noise);
  const std::string path = o.models + "/" + model_file(cipher);
  loc.export_artifact(path);
  std::printf("%s: test accuracy %.3f, crc %llu -> %s\n",
              model_tag(cipher).c_str(), report.test_confusion.accuracy(),
              static_cast<unsigned long long>(artifact_crc(path)), path.c_str());
  return 0;
}

int record_reference(const Options& o) {
  Models models(o.models);
  std::FILE* f = std::fopen(reference_path(o).c_str(), "w");
  if (f == nullptr) usage("cannot write " + reference_path(o));
  const auto li = locate_inputs(kDefaultSeed);
  const auto lr = offline_reference(models, li);
  for (std::size_t i = 0; i < lr.size(); ++i)
    std::fprintf(f, "locate%zu %llu\n", i,
                 static_cast<unsigned long long>(digest(lr[i])));
  const auto si = stream_inputs(kDefaultSeed);
  const auto sr = offline_reference(models, si);
  for (std::size_t i = 0; i < sr.size(); ++i)
    std::fprintf(f, "stream%zu %llu\n", i,
                 static_cast<unsigned long long>(digest(sr[i])));
  std::fclose(f);
  std::printf("wrote %s\n", reference_path(o).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options o = parse(argc, argv);
  try {
    if (!o.make_model.empty()) return make_model(o);
    if (o.record_reference) return record_reference(o);
    return o.trace ? traced_run(o) : untraced_run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
