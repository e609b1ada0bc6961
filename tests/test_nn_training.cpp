// End-to-end training tests for the NN framework: can it actually learn?
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "nn/activations.hpp"
#include "nn/dataloader.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequential.hpp"

namespace scalocate::nn {
namespace {

/// Two-moon-ish separable 2D dataset.
void make_blobs(std::size_t n, std::vector<std::vector<float>>& xs,
                std::vector<std::uint8_t>& ys, std::uint64_t seed) {
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const bool cls = rng.bernoulli(0.5);
    const double cx = cls ? 1.5 : -1.5;
    xs.push_back({static_cast<float>(rng.normal(cx, 0.6)),
                  static_cast<float>(rng.normal(cls ? 0.5 : -0.5, 0.6))});
    ys.push_back(cls ? 1 : 0);
  }
}

double accuracy(Sequential& net, const std::vector<std::vector<float>>& xs,
                const std::vector<std::uint8_t>& ys) {
  net.set_training(false);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    Tensor x = Tensor::from_data({1, 2}, {xs[i][0], xs[i][1]});
    const Tensor logits = net.forward(x);
    const std::uint8_t pred = logits.at(0, 1) > logits.at(0, 0) ? 1 : 0;
    correct += pred == ys[i];
  }
  return static_cast<double>(correct) / static_cast<double>(xs.size());
}

Sequential make_mlp(std::uint64_t seed) {
  Sequential net;
  net.emplace<Linear>(2, 16);
  net.emplace<ReLU>();
  net.emplace<Linear>(16, 2);
  Rng rng(seed);
  init_module(net, rng);
  return net;
}

/// Trains the MLP with Adam; returns its accuracy on the training set.
double train_and_eval(std::uint64_t seed) {
  std::vector<std::vector<float>> xs;
  std::vector<std::uint8_t> ys;
  make_blobs(400, xs, ys, seed);

  Sequential net = make_mlp(seed + 1);
  Adam opt(net.params(), 1e-2f);
  SoftmaxCrossEntropy loss;
  // Reshape rows into [B, 2] batches via the DataLoader's [B,1,N] output.
  DataLoader loader(xs, ys, 32, seed + 2);
  double last_loss = 0.0;
  for (int epoch = 0; epoch < 20; ++epoch) {
    net.set_training(true);
    loader.start_epoch();
    Batch b;
    double epoch_loss = 0.0;
    std::size_t batches = 0;
    while (loader.next(b)) {
      Tensor x = b.inputs.reshaped({b.labels.size(), 2});
      opt.zero_grad();
      const Tensor logits = net.forward(x);
      epoch_loss += static_cast<double>(loss.forward(logits, b.labels));
      net.backward(loss.backward());
      opt.step();
      ++batches;
    }
    last_loss = epoch_loss / static_cast<double>(batches);
  }
  EXPECT_LT(last_loss, 0.4);
  return accuracy(net, xs, ys);
}

TEST(Training, AdamLearnsSeparableBlobs) {
  EXPECT_GT(train_and_eval(5), 0.9);
}

TEST(Training, LossDecreasesMonotonicallyOnAverage) {
  std::vector<std::vector<float>> xs;
  std::vector<std::uint8_t> ys;
  make_blobs(200, xs, ys, 13);
  Sequential net = make_mlp(14);
  Adam opt(net.params(), 1e-2f);
  SoftmaxCrossEntropy loss;
  DataLoader loader(xs, ys, 32, 15);

  std::vector<double> losses;
  for (int epoch = 0; epoch < 8; ++epoch) {
    loader.start_epoch();
    Batch b;
    double acc = 0.0;
    std::size_t n = 0;
    while (loader.next(b)) {
      Tensor x = b.inputs.reshaped({b.labels.size(), 2});
      opt.zero_grad();
      acc += static_cast<double>(loss.forward(net.forward(x), b.labels));
      net.backward(loss.backward());
      opt.step();
      ++n;
    }
    losses.push_back(acc / static_cast<double>(n));
  }
  EXPECT_LT(losses.back(), losses.front());
}

TEST(Training, ZeroGradClearsAccumulation) {
  Linear lin(2, 2);
  Adam opt({&lin.weight(), &lin.bias()}, 1e-3f);
  SoftmaxCrossEntropy loss;
  Tensor x = Tensor::from_data({1, 2}, {1.f, 2.f});
  loss.forward(lin.forward(x), {0});
  lin.backward(loss.backward());
  const float g1 = lin.weight().grad.at(0);
  opt.zero_grad();
  EXPECT_FLOAT_EQ(lin.weight().grad.at(0), 0.f);
  loss.forward(lin.forward(x), {0});
  lin.backward(loss.backward());
  EXPECT_FLOAT_EQ(lin.weight().grad.at(0), g1);
}

TEST(Training, AdamStepChangesParams) {
  Linear lin(2, 2);
  Rng rng(17);
  he_normal_init(lin.weight().value, rng);
  const float before = lin.weight().value.at(0);
  lin.weight().grad.fill(1.0f);
  Adam opt({&lin.weight(), &lin.bias()}, 1e-2f);
  opt.step();
  EXPECT_NE(lin.weight().value.at(0), before);
}

}  // namespace
}  // namespace scalocate::nn
