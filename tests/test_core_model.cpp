// Tests for the paper-CNN builder (Section III-B / Figure 2) and the
// zero-copy sliding-window scoring path built on top of it.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "core/dataset.hpp"
#include "core/model.hpp"
#include "core/sliding_window.hpp"
#include "nn/kernels/parallel.hpp"
#include "nn/loss.hpp"

namespace scalocate::core {
namespace {

nn::Tensor random_window(std::size_t batch, std::size_t n, std::uint64_t seed) {
  nn::Tensor t({batch, 1, n});
  Rng rng(seed);
  for (float& v : t.flat()) v = static_cast<float>(rng.normal());
  return t;
}

TEST(PaperCnn, OutputsTwoClassScores) {
  auto net = build_paper_cnn(CnnConfig::scaled());
  const auto y = net->forward(random_window(3, 128, 1));
  EXPECT_EQ(y.rank(), 2u);
  EXPECT_EQ(y.dim(0), 3u);
  EXPECT_EQ(y.dim(1), 2u);
}

TEST(PaperCnn, GlobalPoolingAcceptsDifferentWindowSizes) {
  // The property Section III-B highlights: Ntrain != Ninf with one model.
  auto net = build_paper_cnn(CnnConfig::scaled());
  net->set_training(false);
  EXPECT_NO_THROW(net->forward(random_window(1, 320, 2)));
  EXPECT_NO_THROW(net->forward(random_window(1, 192, 3)));
  EXPECT_NO_THROW(net->forward(random_window(1, 64, 4)));
}

TEST(PaperCnn, PaperConfigUsesKernel64And16Filters) {
  const auto cfg = CnnConfig::paper();
  EXPECT_EQ(cfg.kernel_size, 64u);
  EXPECT_EQ(cfg.base_filters, 16u);
}

TEST(PaperCnn, ParameterCountMatchesArchitecture) {
  const CnnConfig cfg = CnnConfig::scaled();  // F=16, k=16, H=32
  auto net = build_paper_cnn(cfg);
  std::size_t total = 0;
  for (auto* p : net->params()) total += p->value.numel();
  // conv1: 1*16*16+16; bn1: 32
  // rb1: 2x(16*16*16+16) + 2x32
  // rb2: (16*32*16+32) + (32*32*16+32) + 2x64 + proj(16*32*1+32)
  // fc1: 32*32+32; fc2: 32*2+2
  const std::size_t expected =
      (1 * 16 * 16 + 16) + 32 + 2 * (16 * 16 * 16 + 16) + 2 * 32 +
      (16 * 32 * 16 + 32) + (32 * 32 * 16 + 32) + 2 * 64 +
      (16 * 32 * 1 + 32) + (32 * 32 + 32) + (32 * 2 + 2);
  EXPECT_EQ(total, expected);
}

TEST(PaperCnn, DeterministicInitPerSeed) {
  CnnConfig cfg = CnnConfig::scaled();
  cfg.init_seed = 42;
  auto a = build_paper_cnn(cfg);
  auto b = build_paper_cnn(cfg);
  a->set_training(false);
  b->set_training(false);
  const auto x = random_window(1, 96, 5);
  const auto ya = a->forward(x);
  const auto yb = b->forward(x);
  EXPECT_FLOAT_EQ(ya.at(0, 0), yb.at(0, 0));
  EXPECT_FLOAT_EQ(ya.at(0, 1), yb.at(0, 1));
}

TEST(PaperCnn, TrainableEndToEnd) {
  // One Adam-free gradient step through the full network must not throw and
  // must produce finite gradients.
  auto net = build_paper_cnn(CnnConfig::scaled());
  net->set_training(true);
  nn::SoftmaxCrossEntropy loss;
  const auto x = random_window(4, 96, 7);
  const auto logits = net->forward(x);
  loss.forward(logits, {0, 1, 0, 1});
  net->backward(loss.backward());
  for (auto* p : net->params())
    for (float g : p->grad.flat()) EXPECT_TRUE(std::isfinite(g));
}

TEST(PaperCnn, DescribeMentionsAllStages) {
  const std::string desc = describe_paper_cnn(CnnConfig::paper());
  EXPECT_NE(desc.find("Conv1d(1->16, k=64"), std::string::npos);
  EXPECT_NE(desc.find("ResidualBlock"), std::string::npos);
  EXPECT_NE(desc.find("GlobalAvgPool1d"), std::string::npos);
  EXPECT_NE(desc.find("Linear(32->2)"), std::string::npos);
  EXPECT_NE(desc.find("Softmax"), std::string::npos);
}

// ---------------------------------------------------------------------------
// SlidingWindowClassifier: the zero-copy score_into path
// ---------------------------------------------------------------------------

std::vector<float> random_trace(std::size_t n, std::uint64_t seed) {
  std::vector<float> t(n);
  Rng rng(seed);
  for (float& v : t) v = static_cast<float>(rng.normal());
  return t;
}

/// Scores must match bit for bit (README: detections are bit-identical on
/// every path), which EXPECT_FLOAT_EQ's 4-ULP slack would not catch.
void expect_same_bits(std::span<const float> a, std::span<const float> b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint32_t>(a[i]),
              std::bit_cast<std::uint32_t>(b[i]))
        << "window " << i << ": " << a[i] << " vs " << b[i];
}

TEST(SlidingWindow, NumWindowsEdgeCases) {
  auto net = build_paper_cnn(CnnConfig::scaled());
  net->set_training(false);
  SlidingWindowClassifier c(*net, 192, 48);
  EXPECT_EQ(c.num_windows(191), 0u);  // too short
  EXPECT_EQ(c.num_windows(192), 1u);
  EXPECT_EQ(c.num_windows(192 + 47), 1u);
  EXPECT_EQ(c.num_windows(192 + 48), 2u);
}

TEST(SlidingWindow, ScoreIntoMatchesClassify) {
  auto net = build_paper_cnn(CnnConfig::scaled());
  net->set_training(false);
  SlidingWindowClassifier c(*net, 192, 48, /*batch_size=*/7);
  const auto trace = random_trace(2000, 11);

  nn::Workspace ws_a, ws_b;
  const auto result = c.classify(trace, ws_a);
  std::vector<float> scores(c.num_windows(trace.size()), -1e30f);
  c.score_into(trace, scores, ws_b);
  expect_same_bits(result.scores, scores);
}

TEST(SlidingWindow, ZeroCopyPathMatchesExplicitStaging) {
  // The in-place standardize-into-batch path must produce exactly what
  // the old copy-out/standardize/copy-in staging produced.
  auto net = build_paper_cnn(CnnConfig::scaled());
  net->set_training(false);
  const std::size_t window = 192, stride = 48;
  SlidingWindowClassifier c(*net, window, stride);
  const auto trace = random_trace(1500, 13);

  nn::Workspace ws;
  const auto fast = c.classify(trace, ws);

  const std::size_t n_windows = c.num_windows(trace.size());
  std::vector<float> manual(n_windows);
  for (std::size_t i = 0; i < n_windows; ++i) {
    std::vector<float> buf(trace.begin() + static_cast<std::ptrdiff_t>(i * stride),
                           trace.begin() + static_cast<std::ptrdiff_t>(i * stride + window));
    DatasetBuilder::standardize_window(buf);
    nn::Tensor one({1, 1, window});
    std::copy(buf.begin(), buf.end(), one.data());
    c.score_batch(one, manual.data() + i, ws);
  }
  expect_same_bits(fast.scores, manual);
}

TEST(SlidingWindow, BatchSizeDoesNotChangeScores) {
  // Batch grouping and the intra-op budget are implementation details:
  // each row is independent, so every batch size and budget must give
  // bit-identical scores.
  auto net = build_paper_cnn(CnnConfig::scaled());
  net->set_training(false);
  const auto trace = random_trace(1800, 17);
  std::vector<float> ref;
  {
    nn::kernels::IntraOpGuard serial(1);
    ref = SlidingWindowClassifier(*net, 192, 48, 1).classify(trace).scores;
  }
  ASSERT_FALSE(ref.empty());
  for (std::size_t batch : {1u, 7u, 64u}) {
    for (std::size_t budget : {1u, 3u}) {
      SCOPED_TRACE("batch " + std::to_string(batch) + ", budget " +
                   std::to_string(budget));
      nn::kernels::IntraOpGuard intra(budget);
      const SlidingWindowClassifier c(*net, 192, 48, batch);
      expect_same_bits(c.classify(trace).scores, ref);
    }
  }
}

}  // namespace
}  // namespace scalocate::core
