// Engineering micro-benchmarks (google-benchmark): throughput of the hot
// paths -- the GEMM/conv kernel backend (blocked vs naive reference), full
// CNN window scoring, CPA trace accumulation, the SoC simulator, and the
// segmentation DSP blocks. The conv/GEMM cases feed the README
// "Performance" table.
//
// Besides the console report, every run is collected into BENCH_micro.json
// (custom main below): the dispatched kernel tile, per-case times plus a
// flat "gflops" map keyed by case name — the fields the perf-regression CI
// job gates on.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "common/signal.hpp"
#include "core/model.hpp"
#include "nn/conv1d.hpp"
#include "nn/init.hpp"
#include "nn/kernels/gemm.hpp"
#include "nn/kernels/parallel.hpp"
#include "nn/kernels/reference.hpp"
#include "nn/kernels/tiles.hpp"
#include "obs/json.hpp"
#include "sca/cpa.hpp"
#include "trace/scenario.hpp"
#include "trace/soc_simulator.hpp"

using namespace scalocate;

namespace {

nn::Tensor random_tensor(std::vector<std::size_t> shape, std::uint64_t seed) {
  nn::Tensor t(std::move(shape));
  Rng rng(seed);
  for (float& v : t.flat()) v = static_cast<float>(rng.normal());
  return t;
}

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  std::vector<float> v(n);
  Rng rng(seed);
  for (float& x : v) x = static_cast<float>(rng.normal());
  return v;
}

// --- GEMM kernel: blocked backend vs naive reference (GFLOP/s) -------------
// Sizes mirror the im2col GEMMs of the paper model at Ninf = 192:
// M = Cout, N = out_len, K = Cin*K.

void BM_GemmBlocked(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  const auto k = static_cast<std::size_t>(state.range(2));
  const auto a = random_vec(m * k, 1);
  const auto b = random_vec(k * n, 2);
  std::vector<float> c(m * n);
  for (auto _ : state) {
    nn::kernels::sgemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n,
                       0.0f, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 2.0 * static_cast<double>(m) *
          static_cast<double>(n) * static_cast<double>(k) * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmBlocked)
    ->Args({16, 192, 64})     // entry conv (Cin=1, K=64)
    ->Args({32, 192, 1024})   // widening conv (Cin=16, K=64)
    ->Args({256, 256, 256});  // square reference point

void BM_GemmNaive(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  const auto k = static_cast<std::size_t>(state.range(2));
  const auto a = random_vec(m * k, 1);
  const auto b = random_vec(k * n, 2);
  std::vector<float> c(m * n);
  for (auto _ : state) {
    nn::kernels::sgemm_naive(false, false, m, n, k, 1.0f, a.data(), k,
                             b.data(), n, 0.0f, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 2.0 * static_cast<double>(m) *
          static_cast<double>(n) * static_cast<double>(k) * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmNaive)->Args({32, 192, 1024})->Args({256, 256, 256});

// --- Conv1d forward: direct-conv layer vs preserved naive reference --------
// Paper-size model convolutions (K = 64, Ninf = 192, channels 1->16->32).

struct PaperConv {
  std::size_t cin, cout;
};
constexpr PaperConv kPaperConvs[] = {{1, 16}, {16, 16}, {16, 32}, {32, 32}};

void BM_Conv1dForwardPaper(benchmark::State& state) {
  const PaperConv pc = kPaperConvs[state.range(0)];
  const std::size_t kernel = 64, n = 192, batch = 64;
  nn::Conv1d conv(pc.cin, pc.cout, kernel);
  Rng rng(1);
  nn::he_normal_init(conv.weight().value, rng);
  conv.set_training(false);
  const auto x = random_tensor({batch, pc.cin, n}, 2);
  for (auto _ : state) benchmark::DoNotOptimize(conv.forward(x));
  const double flops = 2.0 * static_cast<double>(batch) *
                       static_cast<double>(pc.cout) * static_cast<double>(n) *
                       static_cast<double>(pc.cin) * static_cast<double>(kernel);
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * flops * 1e-9,
      benchmark::Counter::kIsRate);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch * n));
}
BENCHMARK(BM_Conv1dForwardPaper)->DenseRange(0, 3);

void BM_Conv1dForwardNaivePaper(benchmark::State& state) {
  const PaperConv pc = kPaperConvs[state.range(0)];
  const std::size_t kernel = 64, n = 192, batch = 64;
  nn::Conv1d conv(pc.cin, pc.cout, kernel);
  Rng rng(1);
  nn::he_normal_init(conv.weight().value, rng);
  const auto x = random_tensor({batch, pc.cin, n}, 2);
  std::vector<float> out(batch * pc.cout * n);
  for (auto _ : state) {
    nn::kernels::conv1d_forward_naive(
        x.data(), batch, pc.cin, n, conv.weight().value.data(),
        conv.bias().value.data(), pc.cout, kernel, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  const double flops = 2.0 * static_cast<double>(batch) *
                       static_cast<double>(pc.cout) * static_cast<double>(n) *
                       static_cast<double>(pc.cin) * static_cast<double>(kernel);
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * flops * 1e-9,
      benchmark::Counter::kIsRate);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch * n));
}
BENCHMARK(BM_Conv1dForwardNaivePaper)->DenseRange(0, 3);

// The whole conv stack of the paper model (1->16, 2x 16->16, 16->32,
// 2x 32->32 across the residual blocks collapse to these four shapes with
// multiplicities 1/2/1/2): one number for the model-level conv speedup.
void BM_Conv1dForwardPaperStack(benchmark::State& state) {
  const bool use_gemm = state.range(0) != 0;
  const std::size_t kernel = 64, n = 192, batch = 64;
  const std::size_t mult[] = {1, 2, 1, 2};
  std::vector<std::unique_ptr<nn::Conv1d>> convs;
  std::vector<nn::Tensor> xs;
  double flops = 0.0;
  for (std::size_t i = 0; i < 4; ++i) {
    const PaperConv pc = kPaperConvs[i];
    auto conv = std::make_unique<nn::Conv1d>(pc.cin, pc.cout, kernel);
    Rng rng(i + 1);
    nn::he_normal_init(conv->weight().value, rng);
    conv->set_training(false);
    convs.push_back(std::move(conv));
    xs.push_back(random_tensor({batch, pc.cin, n}, i + 10));
    flops += static_cast<double>(mult[i]) * 2.0 * static_cast<double>(batch) *
             static_cast<double>(pc.cout) * static_cast<double>(n) *
             static_cast<double>(pc.cin) * static_cast<double>(kernel);
  }
  std::vector<float> out(batch * 32 * n);
  for (auto _ : state) {
    for (std::size_t i = 0; i < 4; ++i) {
      for (std::size_t rep = 0; rep < mult[i]; ++rep) {
        if (use_gemm) {
          benchmark::DoNotOptimize(convs[i]->forward(xs[i]));
        } else {
          const PaperConv pc = kPaperConvs[i];
          nn::kernels::conv1d_forward_naive(
              xs[i].data(), batch, pc.cin, n, convs[i]->weight().value.data(),
              convs[i]->bias().value.data(), pc.cout, kernel, out.data());
          benchmark::DoNotOptimize(out.data());
        }
      }
    }
  }
  state.SetLabel(use_gemm ? "kernel backend" : "naive");
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * flops * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Conv1dForwardPaperStack)->Arg(1)->Arg(0);

// --- Intra-op scaling curve ------------------------------------------------
// The same two workloads the README quotes — the 256-cube GEMM and the
// paper conv stack — at an intra-op budget of 1/2/4/8 threads. main()
// folds these into the snapshot's "scaling" section (absolute GFLOP/s plus
// tN_speedup ratios vs the 1-thread run) that the perf CI job gates on.
// Results are bit-identical across the curve; only the wall clock moves.

void BM_GemmBlockedThreads(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  nn::kernels::IntraOpGuard intra(threads);
  const std::size_t m = 256, n = 256, k = 256;
  const auto a = random_vec(m * k, 1);
  const auto b = random_vec(k * n, 2);
  std::vector<float> c(m * n);
  for (auto _ : state) {
    nn::kernels::sgemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n,
                       0.0f, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  // Raw per-iteration FLOPs, not a kIsRate counter: rate counters divide
  // by the bench thread's CPU time, which excludes the compute-pool
  // workers and would report fake speedups. main() derives GFLOP/s from
  // the wall-clock per-iteration time instead.
  state.counters["flops"] =
      benchmark::Counter(2.0 * static_cast<double>(m) *
                         static_cast<double>(n) * static_cast<double>(k));
}
BENCHMARK(BM_GemmBlockedThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime();

void BM_ConvStackThreads(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  nn::kernels::IntraOpGuard intra(threads);
  const std::size_t kernel = 64, n = 192, batch = 64;
  const std::size_t mult[] = {1, 2, 1, 2};
  std::vector<std::unique_ptr<nn::Conv1d>> convs;
  std::vector<nn::Tensor> xs;
  double flops = 0.0;
  for (std::size_t i = 0; i < 4; ++i) {
    const PaperConv pc = kPaperConvs[i];
    auto conv = std::make_unique<nn::Conv1d>(pc.cin, pc.cout, kernel);
    Rng rng(i + 1);
    nn::he_normal_init(conv->weight().value, rng);
    conv->set_training(false);
    convs.push_back(std::move(conv));
    xs.push_back(random_tensor({batch, pc.cin, n}, i + 10));
    flops += static_cast<double>(mult[i]) * 2.0 * static_cast<double>(batch) *
             static_cast<double>(pc.cout) * static_cast<double>(n) *
             static_cast<double>(pc.cin) * static_cast<double>(kernel);
  }
  for (auto _ : state) {
    for (std::size_t i = 0; i < 4; ++i)
      for (std::size_t rep = 0; rep < mult[i]; ++rep)
        benchmark::DoNotOptimize(convs[i]->forward(xs[i]));
  }
  state.counters["flops"] = benchmark::Counter(flops);  // see above
}
BENCHMARK(BM_ConvStackThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime();

void BM_Conv1dForward(benchmark::State& state) {
  const auto channels = static_cast<std::size_t>(state.range(0));
  nn::Conv1d conv(channels, channels, 16);
  Rng rng(1);
  nn::he_normal_init(conv.weight().value, rng);
  conv.set_training(false);
  const auto x = random_tensor({8, channels, 256}, 2);
  for (auto _ : state) benchmark::DoNotOptimize(conv.forward(x));
  state.SetItemsProcessed(state.iterations() * 8 * 256);
}
BENCHMARK(BM_Conv1dForward)->Arg(16)->Arg(32);

// Whole-model eval forward at the served window (Ninf = 384 for AES-128
// and Camellia-128), at batch 1 (streaming) and 64 (offline locate).
void BM_PaperCnnWindowScore(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  auto net = core::build_paper_cnn(core::CnnConfig::scaled());
  net->set_training(false);
  const auto x = random_tensor({batch, 1, 384}, 3);
  for (auto _ : state) benchmark::DoNotOptimize(net->forward(x));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch));  // windows/s
}
BENCHMARK(BM_PaperCnnWindowScore)->Arg(1)->Arg(64);

void BM_CpaAddTrace(benchmark::State& state) {
  sca::CpaConfig cfg;
  cfg.segment_length = 2048;
  cfg.aggregate_bin = 32;
  sca::CpaAttack cpa(cfg);
  Rng rng(4);
  std::vector<float> segment(2048);
  for (auto& v : segment) v = static_cast<float>(rng.normal());
  crypto::Block16 pt{};
  for (auto _ : state) {
    rng.fill_bytes(pt.data(), 16);
    cpa.add_trace(segment, pt);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CpaAddTrace);

void BM_SimulatorAesTrace(benchmark::State& state) {
  trace::SocConfig cfg;
  cfg.random_delay = trace::RandomDelayConfig::kRd4;
  trace::SocSimulator sim(cfg);
  auto cipher = crypto::make_cipher(crypto::CipherId::kAes128);
  cipher->set_key(crypto::Key16{});
  std::size_t samples = 0;
  for (auto _ : state) {
    trace::Trace t;
    sim.run_cipher(*cipher, crypto::Block16{}, t);
    samples += t.size();
    benchmark::DoNotOptimize(t.samples.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(samples));
}
BENCHMARK(BM_SimulatorAesTrace);

void BM_MedianFilter(benchmark::State& state) {
  Rng rng(6);
  std::vector<float> xs(100000);
  for (auto& v : xs) v = rng.bernoulli(0.1) ? 1.f : -1.f;
  for (auto _ : state)
    benchmark::DoNotOptimize(signal::median_filter(xs, 7));
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_MedianFilter);

void BM_NormalizedCrossCorrelation(benchmark::State& state) {
  Rng rng(7);
  std::vector<float> sig(50000), ker(512);
  for (auto& v : sig) v = static_cast<float>(rng.normal());
  for (auto& v : ker) v = static_cast<float>(rng.normal());
  for (auto _ : state)
    benchmark::DoNotOptimize(signal::normalized_cross_correlate(sig, ker));
  state.SetItemsProcessed(state.iterations() * 50000);
}
BENCHMARK(BM_NormalizedCrossCorrelation);

// --- BENCH_micro.json emission ---------------------------------------------

/// ConsoleReporter that also collects every finished run, so the snapshot
/// sees exactly what was printed (works without --benchmark_out, which the
/// stock display/file reporter split requires).
class SnapshotReporter : public benchmark::ConsoleReporter {
 public:
  struct Case {
    std::string name;
    std::int64_t iterations = 0;
    double real_time_ns = 0.0;  ///< adjusted per-iteration real time
    double cpu_time_ns = 0.0;
    std::vector<std::pair<std::string, double>> counters;  ///< e.g. GFLOP/s
  };

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      Case c;
      c.name = run.benchmark_name();
      c.iterations = run.iterations;
      c.real_time_ns = run.GetAdjustedRealTime();
      c.cpu_time_ns = run.GetAdjustedCPUTime();
      for (const auto& [name, counter] : run.counters)
        c.counters.emplace_back(name, counter.value);
      cases.push_back(std::move(c));
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  std::vector<Case> cases;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // The kernel tile every GEMM/conv case ran (tiles.hpp), in the console
  // header and the snapshot: a runner without AVX-512F reports "avx2".
  const std::string kernel_tile = nn::kernels::detail::dispatched_tile().name;
  benchmark::AddCustomContext("kernel_tile", kernel_tile);
  SnapshotReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);

  obs::JsonWriter json;
  json.begin_object();
  json.kv("bench", "micro");
  json.kv("scale", bench::scale());
  json.kv("kernel_tile", kernel_tile);
  json.key("cases").begin_array();
  for (const auto& c : reporter.cases) {
    json.begin_object();
    json.kv("name", c.name);
    json.kv("iterations", static_cast<std::int64_t>(c.iterations));
    json.kv("real_time_ns", c.real_time_ns);
    json.kv("cpu_time_ns", c.cpu_time_ns);
    json.key("counters").begin_object();
    for (const auto& [name, value] : c.counters) json.kv(name, value);
    json.end_object();
    json.end_object();
  }
  json.end_array();
  // Flat name -> GFLOP/s map: the stable paths the CI thresholds reference
  // (case names contain '/' but never '.', so dotted-path lookup works).
  json.key("gflops").begin_object();
  for (const auto& c : reporter.cases)
    for (const auto& [name, value] : c.counters)
      if (name == "GFLOP/s") json.kv(c.name, value);
  json.end_object();
  // Intra-op scaling curves: wall-clock GFLOP/s of the *Threads benches at
  // each thread budget, plus speedup ratios vs their 1-thread run. The
  // perf CI gates on conv_stack.t2_speedup; a 1-core runner reports ~1.0
  // here, so calibrate thresholds for the machine that enforces them.
  {
    const auto wall_gflops = [&](const std::string& name) {
      for (const auto& c : reporter.cases) {
        if (c.name != name || c.real_time_ns <= 0.0) continue;
        for (const auto& [cname, value] : c.counters)
          if (cname == "flops") return value / c.real_time_ns;
      }
      return 0.0;
    };
    json.key("scaling").begin_object();
    const std::pair<const char*, const char*> curves[] = {
        {"gemm256", "BM_GemmBlockedThreads"},
        {"conv_stack", "BM_ConvStackThreads"}};
    for (const auto& [key, bench] : curves) {
      json.key(key).begin_object();
      const double t1 =
          wall_gflops(std::string(bench) + "/1/real_time");
      for (const int t : {1, 2, 4, 8}) {
        const double g = wall_gflops(std::string(bench) + "/" +
                                     std::to_string(t) + "/real_time");
        // Built with += rather than "t" + to_string(): the temporary-chain
        // form trips gcc 12's spurious -Wrestrict on the inlined append.
        std::string tkey("t");
        tkey += std::to_string(t);
        json.kv(tkey, g);
        if (t > 1) json.kv(tkey + "_speedup", t1 > 0.0 ? g / t1 : 0.0);
      }
      json.end_object();
    }
    json.end_object();
  }
  json.end_object();
  bench::write_bench_json("micro", json);

  benchmark::Shutdown();
  return 0;
}
