// Module containers: Sequential chains layers; Residual implements the
// ResNet shortcut y = F(x) + P(x), where P is the identity when shapes
// match and a 1x1 projection convolution otherwise (the paper's second
// residual block widens 16 -> 32 channels).
//
// In eval mode both run depth-first (Layer::forward): batch item b goes
// through every child's eval_item before item b+1 starts. One item's
// activations (at most 32 x 384 floats per layer for the paper model at
// Ninf = 384) stay in L1/L2 instead of the whole batch's going through
// memory once per layer, and the slabs they live in are reused, so a
// warmed-up workspace allocates nothing but the returned tensor.
//
// Sequential also fuses the paper's conv block: a Conv1d followed by a
// BatchNorm1d, with or without a ReLU after it, is one eval step, in
// which the conv kernel applies the BatchNorm and the ReLU to its
// accumulators before the store (kernels::ConvEpilogue). The plan is made
// when layers are added. Either way every element comes from the same
// float operations, in the same order, as the layer-by-layer composition
// of the leaves' own eval forwards, so the output is bit-identical to it
// at every budget (tests/test_nn_eval.cpp).
#pragma once

#include <memory>
#include <vector>

#include "nn/batchnorm.hpp"
#include "nn/conv1d.hpp"
#include "nn/layer.hpp"

namespace scalocate::nn {

class Sequential : public Layer {
 public:
  Sequential() = default;

  /// Appends a layer; returns *this for chaining.
  Sequential& add(LayerPtr layer);

  /// Constructs a layer in place.
  template <typename L, typename... Args>
  Sequential& emplace(Args&&... args) {
    return add(std::make_unique<L>(std::forward<Args>(args)...));
  }

  using Layer::backward;
  Item eval_item(const Item& in, EvalLane& lane) const override;
  Tensor backward(const Tensor& grad_output, Workspace& ws) override;
  std::vector<Param*> params() override;
  std::vector<std::vector<float>*> buffers() override;
  void set_training(bool training) override;
  std::string name() const override { return "Sequential"; }

  /// Multi-line human-readable architecture listing.
  std::string summary() const;

  std::size_t size() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_[i]; }

 protected:
  Tensor forward_train(const Tensor& input, Workspace& ws) const override;

 private:
  /// One step of eval_item: a layer on its own (`layer`), or a fused conv
  /// block (`conv`, its `bn`, and whether a ReLU follows).
  struct EvalStep {
    const Layer* layer = nullptr;
    const Conv1d* conv = nullptr;
    const BatchNorm1d* bn = nullptr;
    bool relu = false;
  };

  /// Rebuilds plan_ from layers_.
  void plan_eval_steps();

  std::vector<LayerPtr> layers_;
  std::vector<EvalStep> plan_;
};

/// Residual block: out = main(x) + shortcut(x).
class Residual final : public Layer {
 public:
  /// `main` is the residual branch. When `projection` is non-null it is
  /// applied on the shortcut path (1x1 conv for channel changes);
  /// otherwise the shortcut is the identity.
  Residual(LayerPtr main, LayerPtr projection = nullptr);

  using Layer::backward;
  Item eval_item(const Item& in, EvalLane& lane) const override;
  Tensor backward(const Tensor& grad_output, Workspace& ws) override;
  std::vector<Param*> params() override;
  std::vector<std::vector<float>*> buffers() override;
  void set_training(bool training) override;
  std::string name() const override { return "Residual"; }

  Layer& main() { return *main_; }
  bool has_projection() const { return projection_ != nullptr; }
  /// The shortcut's projection, or null for an identity shortcut.
  Layer* projection() { return projection_.get(); }

 private:
  Tensor forward_train(const Tensor& input, Workspace& ws) const override;

  LayerPtr main_;
  LayerPtr projection_;
};

}  // namespace scalocate::nn
