// The depth-first eval forward (Layer::forward, nn/layer.hpp) of the
// containers, with Sequential's fused conv blocks: bitwise parity with the
// layer-by-layer composition of the leaves' own unfused eval forwards at
// every batch size and intra-op budget, no heap allocation after warm-up
// beyond the returned tensor, and no compute-pool task for one window.
//
// This binary replaces the global operator new/delete with counting
// versions; they count only inside count_allocations(), like perfbench's
// alloc_counter around the measured call.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/model.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv1d.hpp"
#include "nn/init.hpp"
#include "nn/kernels/parallel.hpp"
#include "nn/kernels/pointwise.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "nn/sequential.hpp"
#include "obs/registry.hpp"
#include "runtime/thread_pool.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_calls{0};
std::atomic<std::size_t> g_bytes{0};

struct AllocCount {
  std::size_t calls, bytes;
};

/// Heap allocations made by fn(), and their total size.
template <typename Fn>
AllocCount count_allocations(Fn&& fn) {
  g_calls = 0;
  g_bytes = 0;
  g_counting = true;
  fn();
  g_counting = false;
  return {g_calls.load(), g_bytes.load()};
}

}  // namespace

// Not inlined: inlined into callers, GCC's -Wmismatched-new-delete would
// see free() on memory from operator new.
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (g_counting.load()) {
    ++g_calls;
    g_bytes += size;
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace scalocate::nn {
namespace {

Tensor random_input(std::vector<std::size_t> shape, std::uint64_t seed) {
  Tensor t(std::move(shape));
  Rng rng(seed);
  for (float& v : t.flat()) v = static_cast<float>(rng.normal());
  return t;
}

/// Randomizes every bias, BatchNorm affine and BatchNorm statistic of
/// `net`, so no layer is an identity (fresh BN is y = x / sqrt(1 + eps)).
void randomize_affines_and_stats(Layer& net, std::uint64_t seed) {
  Rng rng(seed);
  for (Param* p : net.params())
    if (p->name != "conv.weight" && p->name != "linear.weight")
      for (float& v : p->value.flat())
        v = static_cast<float>(rng.uniform(-1.0, 1.0));
  const auto buffers = net.buffers();  // running mean, running var, ...
  for (std::size_t i = 0; i < buffers.size(); ++i)
    for (float& v : *buffers[i])
      v = static_cast<float>(i % 2 == 0 ? rng.uniform(-0.3, 0.3)
                                        : rng.uniform(0.5, 2.0));
}

/// The paper CNN with every parameter and BatchNorm statistic randomized.
std::unique_ptr<Sequential> random_paper_cnn(const core::CnnConfig& config) {
  auto net = core::build_paper_cnn(config);
  randomize_affines_and_stats(*net, 29);
  net->set_training(false);
  return net;
}

/// The reference: every leaf's own eval forward over the whole batch, one
/// layer at a time, with no conv block fused.
Tensor layer_by_layer(Layer& layer, const Tensor& x, Workspace& ws) {
  if (auto* seq = dynamic_cast<Sequential*>(&layer)) {
    Tensor y = x;
    for (std::size_t i = 0; i < seq->size(); ++i)
      y = layer_by_layer(seq->layer(i), y, ws);
    return y;
  }
  if (auto* res = dynamic_cast<Residual*>(&layer)) {
    Tensor main_out = layer_by_layer(res->main(), x, ws);
    const Tensor shortcut = res->projection() != nullptr
                                ? layer_by_layer(*res->projection(), x, ws)
                                : x;
    kernels::add_inplace(main_out.numel(), shortcut.data(), main_out.data());
    return main_out;
  }
  return layer.forward(x, ws);
}

void expect_bit_equal(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  for (std::size_t i = 0; i < a.numel(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint32_t>(a.at(i)),
              std::bit_cast<std::uint32_t>(b.at(i)))
        << "element " << i << ": " << a.at(i) << " vs " << b.at(i);
}

TEST(DepthFirstEval, PaperCnnBitIdenticalToLayerByLayer) {
  for (const auto& config :
       {core::CnnConfig::scaled(), core::CnnConfig::paper()}) {
    auto net = random_paper_cnn(config);
    // One workspace across every call, while the scratch of the threads
    // that run the items regrows and is reused across shapes and budgets.
    Workspace ws;
    for (std::size_t window : {288u, 384u, 301u}) {
      for (std::size_t batch : {1u, 7u, 64u}) {
        const Tensor x = random_input({batch, 1, window}, window + batch);
        Tensor ref;
        {
          kernels::IntraOpGuard serial(1);
          Workspace ref_ws;
          ref = layer_by_layer(*net, x, ref_ws);
        }
        for (std::size_t budget : {1u, 2u, 3u}) {
          SCOPED_TRACE("kernel " + std::to_string(config.kernel_size) +
                       ", window " + std::to_string(window) + ", batch " +
                       std::to_string(batch) + ", budget " +
                       std::to_string(budget));
          kernels::IntraOpGuard intra(budget);
          expect_bit_equal(net->forward(x, ws), ref);
        }
      }
    }
  }
}

TEST(DepthFirstEval, LinearOnlySequentialPassesRankTwoRows) {
  Sequential mlp;
  mlp.emplace<Linear>(5, 9);
  mlp.emplace<ReLU>();
  mlp.emplace<Linear>(9, 3);
  Rng rng(31);
  init_module(mlp, rng);
  mlp.set_training(false);
  const Tensor x = random_input({6, 5}, 37);
  Workspace ref_ws, ws;
  const Tensor ref = layer_by_layer(mlp, x, ref_ws);
  for (std::size_t budget : {1u, 3u}) {
    kernels::IntraOpGuard intra(budget);
    expect_bit_equal(mlp.forward(x, ws), ref);
  }
}

TEST(DepthFirstEval, OtherLeavesAndResidualEdgesMatchLayerByLayer) {
  // What the paper CNN does not run: a conv with no BatchNorm after it, a
  // residual whose main branch starts with ReLU (it must not overwrite the
  // shared block input in place), and one whose main branch is empty (it
  // returns the read-only block input).
  Sequential net;
  net.emplace<Conv1d>(2, 6, 5);
  auto relu_first = std::make_unique<Sequential>();
  relu_first->emplace<ReLU>();
  net.add(std::make_unique<Residual>(std::move(relu_first)));
  net.add(std::make_unique<Residual>(std::make_unique<Sequential>()));
  net.emplace<GlobalAvgPool1d>();
  net.emplace<Linear>(6, 3);
  Rng rng(47);
  init_module(net, rng);
  net.set_training(false);
  const Tensor x = random_input({5, 2, 61}, 53);
  Workspace ref_ws, ws;
  const Tensor ref = layer_by_layer(net, x, ref_ws);
  for (std::size_t budget : {1u, 3u}) {
    kernels::IntraOpGuard intra(budget);
    expect_bit_equal(net.forward(x, ws), ref);
  }
  // An empty batch still yields the output's shape.
  EXPECT_EQ(net.forward(Tensor({0, 2, 61}), ws).shape(),
            (std::vector<std::size_t>{0, 3}));
}

TEST(DepthFirstEval, FusedConvBlocksMatchLayerByLayer) {
  // The conv-block shapes the paper CNN lacks: conv -> BN without a ReLU,
  // conv -> ReLU without a BN (not fused: there is no BatchNorm to apply),
  // and a Sequential that ends in conv -> BN.
  Sequential net;
  net.emplace<Conv1d>(2, 8, 5);
  net.emplace<BatchNorm1d>(8);
  net.emplace<Conv1d>(8, 8, 3);
  net.emplace<ReLU>();
  net.emplace<Conv1d>(8, 16, 7);
  net.emplace<BatchNorm1d>(16);
  Rng rng(59);
  init_module(net, rng);
  randomize_affines_and_stats(net, 61);
  net.set_training(false);
  Workspace ws;
  for (std::size_t batch : {1u, 5u}) {
    const Tensor x = random_input({batch, 2, 97}, 67 + batch);
    Workspace ref_ws;
    const Tensor ref = layer_by_layer(net, x, ref_ws);
    for (std::size_t budget : {1u, 3u}) {
      SCOPED_TRACE("batch " + std::to_string(batch) + ", budget " +
                   std::to_string(budget));
      kernels::IntraOpGuard intra(budget);
      expect_bit_equal(net.forward(x, ws), ref);
    }
  }
}

TEST(DepthFirstEval, FusedConvBlockReadsStatisticsChangedAfterEvalSwitch) {
  // The fused step reads the BatchNorm's running statistics at call time:
  // a change after set_training(false) must show in the next forward,
  // exactly as in the BatchNorm's own forward.
  auto net = random_paper_cnn(core::CnnConfig::scaled());
  const Tensor x = random_input({2, 1, 384}, 71);
  Workspace ws;
  const Tensor before = net->forward(x, ws);
  for (std::vector<float>* stats : net->buffers())  // running mean and var
    for (float& v : *stats) v *= 1.5f;
  Workspace ref_ws;
  const Tensor ref = layer_by_layer(*net, x, ref_ws);
  const Tensor after = net->forward(x, ws);
  expect_bit_equal(after, ref);
  EXPECT_NE(std::bit_cast<std::uint32_t>(after.at(0)),
            std::bit_cast<std::uint32_t>(before.at(0)));
}

TEST(DepthFirstEval, StrayBackwardAfterEvalForwardThrows) {
  // The eval forward drops the training caches in the containers and in
  // every bare leaf, so backward cannot read stale activations.
  struct Case {
    const char* name;
    std::unique_ptr<Layer> layer;
    std::vector<std::size_t> input_shape;
  };
  Case cases[] = {
      {"paper CNN", core::build_paper_cnn(core::CnnConfig::scaled()),
       {2, 1, 64}},
      {"Conv1d", std::make_unique<Conv1d>(2, 3, 5), {2, 2, 16}},
      {"BatchNorm1d", std::make_unique<BatchNorm1d>(2), {2, 2, 16}},
      {"ReLU", std::make_unique<ReLU>(), {2, 2, 16}},
      {"GlobalAvgPool1d", std::make_unique<GlobalAvgPool1d>(), {2, 2, 16}},
      {"Linear", std::make_unique<Linear>(4, 3), {2, 4}},
  };
  for (Case& c : cases) {
    SCOPED_TRACE(c.name);
    const Tensor x = random_input(c.input_shape, 41);
    Workspace ws;
    c.layer->set_training(true);
    const Tensor y = c.layer->forward(x, ws);  // leaves training caches behind
    c.layer->set_training(false);
    c.layer->forward(x, ws);
    c.layer->set_training(true);
    EXPECT_THROW(c.layer->backward(y, ws), Error);
  }
}

TEST(DepthFirstEval, AllocatesOnlyTheReturnedTensorAfterWarmUp) {
  auto net = random_paper_cnn(core::CnnConfig::scaled());
  // The serving budget: fanning out posts pool tasks, which allocate.
  kernels::IntraOpGuard serial(1);
  for (std::size_t batch : {1u, 64u}) {
    SCOPED_TRACE("batch " + std::to_string(batch));
    const Tensor x = random_input({batch, 1, 384}, 43);
    Workspace ws;
    net->forward(x, ws);  // warm-up: sizes the thread's scratch
    const AllocCount logits =
        count_allocations([&] { const Tensor t({batch, 2}); });
    ASSERT_GT(logits.calls, 0u);
    // The same workspace again, then a fresh one: the scratch belongs to
    // the thread, so a warmed-up thread allocates nothing else either way.
    Workspace fresh;
    for (Workspace* w : {&ws, &fresh}) {
      SCOPED_TRACE(w == &ws ? "warm workspace" : "fresh workspace");
      Tensor y;
      const AllocCount forward =
          count_allocations([&] { y = net->forward(x, *w); });
      EXPECT_EQ(forward.calls, logits.calls);
      EXPECT_EQ(forward.bytes, logits.bytes);
      EXPECT_EQ(y.dim(0), batch);
    }
  }
}

TEST(DepthFirstEval, OneWindowForwardPostsNoComputeTask) {
  // An eval forward splits only its items across the compute pool, so one
  // window runs on the calling thread whatever the intra-op budget.
  auto net = random_paper_cnn(core::CnnConfig::paper());
  kernels::IntraOpGuard intra(4);
  Workspace ws;
  net->forward(random_input({64, 1, 384}, 73), ws);  // creates the pool
  runtime::ThreadPool* pool = kernels::compute_pool();
  ASSERT_NE(pool, nullptr);
  // Never freed: the registry must outlive the process-wide pool.
  static auto* const registry = new obs::Registry();
  pool->attach_metrics(*registry, "compute");
  const obs::Counter& tasks = registry->counter("compute.tasks");
  const Tensor x = random_input({1, 1, 384}, 79);
  net->forward(x, ws);
  const std::uint64_t before = tasks.value();
  net->forward(x, ws);
  EXPECT_EQ(tasks.value() - before, 0u);
}

}  // namespace
}  // namespace scalocate::nn
