// Layer interface of the explicit forward/backward NN framework.
//
// Forward passes are const and write every retained activation into a
// caller-owned Workspace instead of layer members. A trained model can
// therefore be shared across threads: each concurrent caller owns a private
// Workspace and runs eval-mode forward passes on the same layers without
// synchronization (api::Engine's job pool relies on this). backward
// reads the caches the paired forward left in the same workspace, so
// callers must pass one workspace per in-flight forward/backward pair.
//
// In training mode Layer::forward is the layer's forward_train. In eval
// mode it runs depth-first, for leaves and containers alike: each batch
// item goes through the layer's eval_item (a container's runs every
// child) before the next item starts, with its activations in the slabs
// of the running thread's EvalLane, which are sized on first use and
// reused after, and its output written straight into the returned tensor.
// So every layer has one eval implementation, its eval_item.
#pragma once

#include <array>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "nn/tensor.hpp"

namespace scalocate::nn {

/// A trainable parameter: value plus accumulated gradient of equal shape.
struct Param {
  Tensor value;
  Tensor grad;
  std::string name;

  explicit Param(std::vector<std::size_t> shape, std::string param_name = {})
      : value(shape), grad(std::move(shape)), name(std::move(param_name)) {}

  void zero_grad() { grad.fill(0.0f); }
};

class Layer;

/// One batch item (a row of dim 0) in the depth-first eval forward: the
/// item's floats and its shape, which is the batched shape without the
/// leading dimension.
struct Item {
  static constexpr std::size_t kMaxRank = 4;

  const float* data = nullptr;
  std::array<std::size_t, kMaxRank> dims{};
  std::size_t rank = 0;
  /// The data lives in a lane slab that nothing after the current step
  /// reads, so a shape-preserving step may overwrite it in place.
  bool writable = false;

  std::size_t numel() const;
  bool same_shape(const Item& other) const;
  /// Same shape, new (writable) data.
  Item with_data(float* out) const;
  /// "item (16, 384)" -- for error messages.
  std::string shape_string() const;
};

/// Activation scratch of the depth-first eval forward: a bump arena of
/// slabs. The arena is rewound before every item and each step pushes a
/// fresh slab, so no live activation is ever overwritten; since every item
/// of a forward pushes the same slabs, the slabs keep their storage and a
/// warmed-up lane allocates nothing.
class EvalLane {
 public:
  /// The calling thread's lane (thread-local). The eval driver runs every
  /// item on the lane of the thread that runs it, and never nests, so no
  /// two forwards share a lane at once.
  static EvalLane& local();

  /// Next slab, grown to hold at least `count` floats.
  float* push(std::size_t count);
  /// Output buffer of a shape-preserving step on `in`: `in`'s own slab
  /// when it is writable (the step runs in place), else a fresh slab.
  float* output_for(const Item& in);
  void rewind() { top_ = 0; }

 private:
  std::vector<std::vector<float>> slabs_;
  std::size_t top_ = 0;
};

/// Caller-owned state that outlives one call: the per-layer activations a
/// backward pass reads, and the scoring staging tensor. Slots are keyed by
/// layer identity, so a single workspace serves a whole module tree
/// (Sequential/Residual children included). Scratch that holds nothing
/// between calls (eval activations, pack buffers, im2col columns) belongs
/// to the calling thread instead. Reusing one workspace across calls avoids
/// reallocation; it is NOT safe to share one workspace between concurrent
/// forward passes.
class Workspace {
 public:
  struct Slot {
    Tensor a;                        ///< primary cache (input / mask / xhat)
    std::vector<float> scalars;      ///< per-channel scalars (batch norm)
    std::vector<std::size_t> shape;  ///< cached input shape (pooling)
  };

  Slot& slot(const Layer* layer) { return slots_[layer]; }
  void clear() { slots_.clear(); }

  /// Reusable input-staging tensor for batched window scoring: callers
  /// standardize trace windows directly into this tensor and hand it to
  /// the model, avoiding any per-window staging copies.
  Tensor& staging() { return staging_; }

 private:
  std::unordered_map<const Layer*, Slot> slots_;
  Tensor staging_;
};

/// Base class of all layers/modules. Forward is const: it may read
/// parameters and mode flags but retains activations only inside the
/// caller's Workspace. The single exception is BatchNorm1d's running
/// statistics, which are updated in training mode only (training-mode
/// forward passes are therefore not thread-safe; eval-mode passes are).
///
/// In eval mode no backward-only cache is kept: the eval forward caches
/// nothing and clears every slot of the workspace, so backward after an
/// eval-mode forward throws.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes outputs for a batch. In training mode this is forward_train.
  /// In eval mode each item of dim 0 runs through eval_item on its own:
  /// item 0 on the calling thread (it fixes the output shape; an empty
  /// batch runs one zero item instead), then items 1..B-1, split into
  /// chunks across the compute pool when the intra-op budget is above 1
  /// and the caller is not already in a parallel region. Each item runs on
  /// the EvalLane of the thread that runs it. Kernels called inside a
  /// chunk stay single-threaded, and every output element comes from the
  /// same float operations whatever the split and whichever thread's
  /// scratch it used, so the result is bit-identical at every budget.
  Tensor forward(const Tensor& input, Workspace& ws) const;

  /// Eval-mode forward of ONE batch item, the step of the eval forward:
  /// reads `in` and returns the output item, written into a slab of
  /// `lane` (or, for a shape-preserving step on a writable item, into
  /// `in` itself).
  virtual Item eval_item(const Item& in, EvalLane& lane) const = 0;

  /// Given dLoss/dOutput and the workspace of the paired forward,
  /// accumulates parameter gradients and returns dLoss/dInput.
  virtual Tensor backward(const Tensor& grad_output, Workspace& ws) = 0;

  /// Single-threaded convenience (training loops, tests): routes through an
  /// internal workspace. Not thread-safe; concurrent callers must use the
  /// explicit-workspace overloads.
  Tensor forward(const Tensor& input) { return forward(input, scratch_); }
  Tensor backward(const Tensor& grad_output) {
    return backward(grad_output, scratch_);
  }

  /// Trainable parameters (empty for stateless layers).
  virtual std::vector<Param*> params() { return {}; }

  /// Read-only view of the trainable parameters. Saving/snapshotting a
  /// model must not require mutable access, so serialization goes through
  /// this overload. The const_cast is sound: the virtual params() only
  /// collects pointers, and callers of this overload never write through
  /// them.
  std::vector<const Param*> params() const {
    const auto ps = const_cast<Layer*>(this)->params();
    return std::vector<const Param*>(ps.begin(), ps.end());
  }

  /// Non-trainable state that must survive serialization (batch-norm
  /// running statistics). Containers aggregate their children's buffers.
  virtual std::vector<std::vector<float>*> buffers() { return {}; }

  /// Read-only view of the serialized buffers (see the const params()).
  std::vector<const std::vector<float>*> buffers() const {
    const auto bs = const_cast<Layer*>(this)->buffers();
    return std::vector<const std::vector<float>*>(bs.begin(), bs.end());
  }

  /// Switches train/eval behaviour (batch-norm statistics).
  virtual void set_training(bool training) { training_ = training; }
  bool training() const { return training_; }

  /// Short identifier, e.g. "Conv1d(16->32, k=64)".
  virtual std::string name() const = 0;

 protected:
  /// Training-mode forward of a batch, caching into `ws` what backward
  /// needs.
  virtual Tensor forward_train(const Tensor& input, Workspace& ws) const = 0;

  bool training_ = true;

 private:
  Workspace scratch_;
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace scalocate::nn
