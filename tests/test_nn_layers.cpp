// Layer-level tests: shape rules, reference values, and finite-difference
// gradient checks for every layer of the NN framework.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv1d.hpp"
#include "nn/dataloader.hpp"
#include "nn/gradcheck.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/pooling.hpp"
#include "nn/sequential.hpp"
#include "nn/serialize.hpp"

namespace scalocate::nn {
namespace {

Tensor random_input(std::vector<std::size_t> shape, std::uint64_t seed) {
  Tensor t(std::move(shape));
  Rng rng(seed);
  for (float& v : t.flat()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return t;
}

// ---------------------------------------------------------------------------
// Conv1d
// ---------------------------------------------------------------------------

TEST(Conv1d, SamePaddingPreservesLength) {
  for (std::size_t k : {1u, 3u, 16u, 64u}) {
    Conv1d conv(1, 4, k);
    const auto out = conv.forward(random_input({2, 1, 100}, k));
    EXPECT_EQ(out.dim(2), 100u) << "kernel " << k;
    EXPECT_EQ(out.dim(1), 4u);
  }
}

TEST(Conv1d, EmptyTemporalAxisThrowsInvalidArgument) {
  // Same padding keeps every length n >= 1; n == 0 is a typed error on
  // both the training forward and the eval forward (eval_item).
  for (std::size_t k : {1u, 64u}) {
    SCOPED_TRACE("kernel " + std::to_string(k));
    Conv1d conv(2, 4, k);
    EXPECT_THROW(conv.forward(Tensor({3, 2, 0})), InvalidArgument);
    conv.set_training(false);
    EXPECT_THROW(conv.forward(Tensor({3, 2, 0})), InvalidArgument);
  }
}

TEST(Conv1d, IdentityKernelCopiesInput) {
  Conv1d conv(1, 1, 1);
  conv.weight().value.at(0) = 1.0f;
  conv.bias().value.at(0) = 0.0f;
  const auto x = random_input({1, 1, 10}, 2);
  const auto y = conv.forward(x);
  for (std::size_t i = 0; i < 10; ++i)
    EXPECT_FLOAT_EQ(y.at(0, 0, i), x.at(0, 0, i));
}

TEST(Conv1d, KnownValueWithZeroPadding) {
  // kernel [1, 2, 3], pad 1, input [1, 1, 1]: out[0] = 0*1 + 1*2 + 1*3 = 5.
  Conv1d conv(1, 1, 3);
  conv.weight().value.at(0) = 1.f;
  conv.weight().value.at(1) = 2.f;
  conv.weight().value.at(2) = 3.f;
  conv.bias().value.at(0) = 0.f;
  const auto y =
      conv.forward(Tensor::from_data({1, 1, 3}, {1.f, 1.f, 1.f}));
  EXPECT_FLOAT_EQ(y.at(0, 0, 0), 5.f);   // left edge: zero-padded
  EXPECT_FLOAT_EQ(y.at(0, 0, 1), 6.f);   // full overlap
  EXPECT_FLOAT_EQ(y.at(0, 0, 2), 3.f);   // right edge
}

TEST(Conv1d, BiasIsAdded) {
  Conv1d conv(1, 1, 1);
  conv.weight().value.at(0) = 0.f;
  conv.bias().value.at(0) = 2.5f;
  const auto y = conv.forward(random_input({1, 1, 4}, 3));
  for (std::size_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(y.at(0, 0, i), 2.5f);
}

TEST(Conv1d, WrongChannelCountThrows) {
  Conv1d conv(2, 4, 3);
  EXPECT_THROW(conv.forward(random_input({1, 3, 8}, 1)), Error);
}

struct ConvCase {
  std::size_t cin, cout, kernel, n;
};

class ConvGradient : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvGradient, MatchesFiniteDifferences) {
  const auto p = GetParam();
  Conv1d conv(p.cin, p.cout, p.kernel);
  Rng rng(11);
  he_normal_init(conv.weight().value, rng);
  const auto x = random_input({2, p.cin, p.n}, 5);
  const auto result = check_layer_gradients(conv, x);
  EXPECT_TRUE(result.passed)
      << "abs=" << result.max_abs_error << " rel=" << result.max_rel_error;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvGradient,
    ::testing::Values(ConvCase{1, 2, 3, 12}, ConvCase{2, 3, 5, 10},
                      ConvCase{1, 1, 4, 9}, ConvCase{3, 1, 1, 6}));

// ---------------------------------------------------------------------------
// BatchNorm1d
// ---------------------------------------------------------------------------

TEST(BatchNorm, NormalizesPerChannelInTraining) {
  BatchNorm1d bn(2);
  bn.set_training(true);
  auto x = random_input({4, 2, 16}, 7);
  // Shift channel 1 far away to verify per-channel statistics.
  for (std::size_t b = 0; b < 4; ++b)
    for (std::size_t i = 0; i < 16; ++i) x.at(b, 1, i) += 50.f;
  const auto y = bn.forward(x);
  for (std::size_t c = 0; c < 2; ++c) {
    double mean = 0.0, var = 0.0;
    for (std::size_t b = 0; b < 4; ++b)
      for (std::size_t i = 0; i < 16; ++i)
        mean += static_cast<double>(y.at(b, c, i));
    mean /= 64.0;
    for (std::size_t b = 0; b < 4; ++b)
      for (std::size_t i = 0; i < 16; ++i) {
        const double d = static_cast<double>(y.at(b, c, i)) - mean;
        var += d * d;
      }
    var /= 64.0;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNorm, EvalUsesRunningStats) {
  BatchNorm1d bn(1);
  bn.set_training(true);
  // Feed constant-distribution batches to converge the running stats.
  for (int i = 0; i < 200; ++i) {
    auto x = random_input({8, 1, 4}, 100 + static_cast<std::uint64_t>(i));
    for (float& v : x.flat()) v = v * 2.f + 3.f;  // mean 3, var ~4/3
    bn.forward(x);
  }
  bn.set_training(false);
  auto probe = Tensor::from_data({1, 1, 1}, {3.f});
  const auto y = bn.forward(probe);
  EXPECT_NEAR(y.at(0), 0.0f, 0.15f);  // input at the running mean -> ~0
}

TEST(BatchNorm, GammaBetaApplied) {
  BatchNorm1d bn(1);
  bn.gamma().value.at(0) = 2.0f;
  bn.beta().value.at(0) = 1.0f;
  bn.set_training(false);  // running stats: mean 0, var 1
  auto x = Tensor::from_data({1, 1, 2}, {1.f, -1.f});
  const auto y = bn.forward(x);
  EXPECT_NEAR(y.at(0, 0, 0), 3.0f, 1e-4);
  EXPECT_NEAR(y.at(0, 0, 1), -1.0f, 1e-4);
}

TEST(BatchNorm, GradientTrainingMode) {
  BatchNorm1d bn(2);
  bn.set_training(true);
  const auto x = random_input({3, 2, 5}, 13);
  const auto result = check_layer_gradients(bn, x);
  EXPECT_TRUE(result.passed)
      << "abs=" << result.max_abs_error << " rel=" << result.max_rel_error;
}

// ---------------------------------------------------------------------------
// ReLU / softmax
// ---------------------------------------------------------------------------

TEST(ReLU, ClampsNegatives) {
  ReLU relu;
  const auto y = relu.forward(Tensor::from_data({1, 4}, {-1.f, 0.f, 2.f, -3.f}));
  EXPECT_FLOAT_EQ(y.at(0), 0.f);
  EXPECT_FLOAT_EQ(y.at(1), 0.f);
  EXPECT_FLOAT_EQ(y.at(2), 2.f);
  EXPECT_FLOAT_EQ(y.at(3), 0.f);
}

TEST(ReLU, Gradient) {
  ReLU relu;
  const auto x = random_input({2, 8}, 23);
  EXPECT_TRUE(check_layer_gradients(relu, x).passed);
}

TEST(Softmax, RowsSumToOne) {
  const auto p = softmax(random_input({4, 3}, 29));
  for (std::size_t b = 0; b < 4; ++b) {
    double sum = 0.0;
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_GT(p.at(b, c), 0.f);
      sum += static_cast<double>(p.at(b, c));
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(Softmax, StableForLargeLogits) {
  const auto p = softmax(Tensor::from_data({1, 2}, {1000.f, 1000.f}));
  EXPECT_NEAR(p.at(0, 0), 0.5f, 1e-5);
}

// ---------------------------------------------------------------------------
// Linear / pooling
// ---------------------------------------------------------------------------

TEST(Linear, KnownValue) {
  Linear lin(2, 1);
  lin.weight().value.at(0) = 2.f;
  lin.weight().value.at(1) = -1.f;
  lin.bias().value.at(0) = 0.5f;
  const auto y = lin.forward(Tensor::from_data({1, 2}, {3.f, 4.f}));
  EXPECT_FLOAT_EQ(y.at(0, 0), 2.f * 3.f - 4.f + 0.5f);
}

TEST(Linear, Gradient) {
  Linear lin(4, 3);
  Rng rng(31);
  he_normal_init(lin.weight().value, rng);
  EXPECT_TRUE(check_layer_gradients(lin, random_input({2, 4}, 37)).passed);
}

TEST(GlobalAvgPool, AveragesTemporalAxis) {
  GlobalAvgPool1d gap;
  const auto y =
      gap.forward(Tensor::from_data({1, 2, 3}, {1, 2, 3, 10, 20, 30}));
  EXPECT_FLOAT_EQ(y.at(0, 0), 2.f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 20.f);
}

TEST(GlobalAvgPool, WorksForAnyLength) {
  GlobalAvgPool1d gap;
  EXPECT_EQ(gap.forward(random_input({2, 4, 100}, 1)).dim(1), 4u);
  EXPECT_EQ(gap.forward(random_input({2, 4, 7}, 2)).dim(1), 4u);
}

TEST(GlobalAvgPool, Gradient) {
  GlobalAvgPool1d gap;
  EXPECT_TRUE(check_layer_gradients(gap, random_input({2, 3, 6}, 41)).passed);
}

// ---------------------------------------------------------------------------
// Containers
// ---------------------------------------------------------------------------

TEST(Sequential, ChainsLayersAndCollectsParams) {
  Sequential seq;
  seq.emplace<Linear>(4, 8);
  seq.emplace<ReLU>();
  seq.emplace<Linear>(8, 2);
  EXPECT_EQ(seq.params().size(), 4u);  // two weights + two biases
  const auto y = seq.forward(random_input({3, 4}, 43));
  EXPECT_EQ(y.dim(1), 2u);
}

TEST(Sequential, Gradient) {
  Sequential seq;
  seq.emplace<Linear>(3, 5);
  seq.emplace<ReLU>();
  seq.emplace<Linear>(5, 2);
  Rng rng(47);
  init_module(seq, rng);
  EXPECT_TRUE(check_layer_gradients(seq, random_input({2, 3}, 53)).passed);
}

TEST(Residual, IdentityShortcutAddsInput) {
  // Main branch with zero weights -> output == input (identity shortcut).
  auto main = std::make_unique<Sequential>();
  main->emplace<Conv1d>(2, 2, 3);
  Residual res(std::move(main));
  const auto x = random_input({1, 2, 6}, 59);
  const auto y = res.forward(x);
  for (std::size_t i = 0; i < x.numel(); ++i)
    EXPECT_FLOAT_EQ(y.at(i), x.at(i));  // conv weights start at zero
}

TEST(Residual, ProjectionAlignsChannels) {
  auto main = std::make_unique<Sequential>();
  main->emplace<Conv1d>(2, 4, 3);
  auto proj = std::make_unique<Conv1d>(2, 4, 1);
  Residual res(std::move(main), std::move(proj));
  EXPECT_TRUE(res.has_projection());
  const auto y = res.forward(random_input({1, 2, 6}, 61));
  EXPECT_EQ(y.dim(1), 4u);
}

TEST(Residual, GradientWithProjection) {
  auto main = std::make_unique<Sequential>();
  main->emplace<Conv1d>(2, 3, 3);
  auto proj = std::make_unique<Conv1d>(2, 3, 1);
  Residual res(std::move(main), std::move(proj));
  Rng rng(67);
  init_module(res, rng);
  EXPECT_TRUE(check_layer_gradients(res, random_input({2, 2, 5}, 71)).passed);
}

// ---------------------------------------------------------------------------
// Loss
// ---------------------------------------------------------------------------

TEST(Loss, UniformLogitsGiveLogC) {
  SoftmaxCrossEntropy loss;
  const auto logits = Tensor({4, 2});  // zeros -> uniform distribution
  const float l = loss.forward(logits, {0, 1, 0, 1});
  EXPECT_NEAR(l, std::log(2.0), 1e-5);
}

TEST(Loss, PerfectPredictionHasLowLoss) {
  SoftmaxCrossEntropy loss;
  auto logits = Tensor({1, 2});
  logits.at(0, 1) = 20.f;
  EXPECT_LT(loss.forward(logits, {1}), 1e-4f);
}

TEST(Loss, GradientIsSoftmaxMinusOnehotOverB) {
  SoftmaxCrossEntropy loss;
  const auto logits = Tensor({2, 2});  // uniform
  loss.forward(logits, {0, 1});
  const auto g = loss.backward();
  EXPECT_NEAR(g.at(0, 0), (0.5 - 1.0) / 2.0, 1e-5);
  EXPECT_NEAR(g.at(0, 1), 0.5 / 2.0, 1e-5);
  EXPECT_NEAR(g.at(1, 1), (0.5 - 1.0) / 2.0, 1e-5);
}

TEST(Loss, LabelOutOfRangeThrows) {
  SoftmaxCrossEntropy loss;
  EXPECT_THROW(loss.forward(Tensor({1, 2}), {2}), Error);
}

// ---------------------------------------------------------------------------
// Init / serialization / data loading
// ---------------------------------------------------------------------------

TEST(Init, HeNormalHasExpectedScale) {
  Tensor w({64, 32, 8});  // fan_in = 256 -> std = sqrt(2/256)
  Rng rng(73);
  he_normal_init(w, rng);
  double sum = 0.0, sum_sq = 0.0;
  for (float v : w.flat()) {
    sum += static_cast<double>(v);
    sum_sq += static_cast<double>(v) * static_cast<double>(v);
  }
  const double n = static_cast<double>(w.numel());
  EXPECT_NEAR(sum / n, 0.0, 5e-3);
  EXPECT_NEAR(std::sqrt(sum_sq / n), std::sqrt(2.0 / 256.0), 5e-3);
}

TEST(Init, ModuleInitSkipsBatchNorm) {
  Sequential seq;
  seq.emplace<Conv1d>(1, 2, 3);
  seq.emplace<BatchNorm1d>(2);
  Rng rng(79);
  init_module(seq, rng);
  auto params = seq.params();
  // BN gamma stays 1, beta stays 0.
  bool saw_gamma = false;
  for (Param* p : params) {
    if (p->name == "bn.gamma") {
      saw_gamma = true;
      for (float v : p->value.flat()) EXPECT_FLOAT_EQ(v, 1.0f);
    }
  }
  EXPECT_TRUE(saw_gamma);
}

TEST(Serialize, PayloadRoundTrip) {
  Sequential a, b;
  for (Sequential* s : {&a, &b}) {
    s->emplace<Conv1d>(1, 2, 3);
    s->emplace<BatchNorm1d>(2);
    s->emplace<ReLU>();
    s->emplace<GlobalAvgPool1d>();
    s->emplace<Linear>(2, 2);
  }
  Rng rng(83);
  init_module(a, rng);
  a.set_training(true);
  a.forward(random_input({4, 1, 10}, 89));  // give BN nontrivial stats

  // Saving must not require mutable access (const CoLocator::export_artifact
  // depends on this).
  const Layer& a_const = a;
  std::stringstream payload;
  write_module_payload(payload, a_const);
  read_module_payload(payload, b);

  a.set_training(false);
  b.set_training(false);
  const auto x = random_input({2, 1, 10}, 97);
  const auto ya = a.forward(x);
  const auto yb = b.forward(x);
  for (std::size_t i = 0; i < ya.numel(); ++i)
    EXPECT_FLOAT_EQ(ya.at(i), yb.at(i));
}

TEST(Serialize, SnapshotRestore) {
  Linear lin(2, 2);
  Rng rng(101);
  he_normal_init(lin.weight().value, rng);
  const auto snap = snapshot_module(static_cast<const Layer&>(lin));
  const float orig = lin.weight().value.at(0);
  lin.weight().value.at(0) = 999.f;
  restore_module(lin, snap);
  EXPECT_FLOAT_EQ(lin.weight().value.at(0), orig);
}

TEST(DataLoader, BatchesCoverDataset) {
  std::vector<std::vector<float>> windows(10, std::vector<float>(4, 1.f));
  std::vector<std::uint8_t> labels(10, 0);
  DataLoader loader(windows, labels, 3, 1);
  Batch b;
  std::size_t seen = 0, batches = 0;
  while (loader.next(b)) {
    EXPECT_EQ(b.inputs.dim(1), 1u);
    EXPECT_EQ(b.inputs.dim(2), 4u);
    seen += b.labels.size();
    ++batches;
  }
  EXPECT_EQ(batches, 4u);  // the last, partial batch included
  EXPECT_EQ(seen, 10u);
}

TEST(DataLoader, ShuffleIsDeterministicPerSeed) {
  std::vector<std::vector<float>> windows;
  std::vector<std::uint8_t> labels;
  for (int i = 0; i < 8; ++i) {
    windows.push_back({static_cast<float>(i)});
    labels.push_back(static_cast<std::uint8_t>(i % 2));
  }
  DataLoader a(windows, labels, 8, 42), b(windows, labels, 8, 42);
  Batch ba, bb;
  a.next(ba);
  b.next(bb);
  for (std::size_t i = 0; i < 8; ++i)
    EXPECT_FLOAT_EQ(ba.inputs.at(i), bb.inputs.at(i));
}

TEST(DataLoader, RaggedWindowsThrow) {
  std::vector<std::vector<float>> windows = {{1.f, 2.f}, {1.f}};
  std::vector<std::uint8_t> labels = {0, 1};
  EXPECT_THROW(DataLoader(windows, labels, 2, 1), Error);
}

}  // namespace
}  // namespace scalocate::nn
