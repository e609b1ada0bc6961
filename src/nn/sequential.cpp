#include "nn/sequential.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"
#include "nn/activations.hpp"
#include "nn/kernels/pointwise.hpp"

namespace scalocate::nn {

Sequential& Sequential::add(LayerPtr layer) {
  detail::require(layer != nullptr, "Sequential::add: null layer");
  layers_.push_back(std::move(layer));
  plan_eval_steps();
  return *this;
}

void Sequential::plan_eval_steps() {
  plan_.clear();
  const auto at = [&](std::size_t i) {
    return i < layers_.size() ? layers_[i].get() : nullptr;
  };
  for (std::size_t i = 0; i < layers_.size();) {
    const auto* conv = dynamic_cast<const Conv1d*>(at(i));
    const auto* bn = dynamic_cast<const BatchNorm1d*>(at(i + 1));
    if (conv != nullptr && bn != nullptr &&
        bn->channels() == conv->out_channels()) {
      const bool relu = dynamic_cast<const ReLU*>(at(i + 2)) != nullptr;
      plan_.push_back({nullptr, conv, bn, relu});
      i += relu ? 3 : 2;
    } else {
      plan_.push_back({at(i)});
      ++i;
    }
  }
}

Tensor Sequential::forward_train(const Tensor& input, Workspace& ws) const {
  if (layers_.empty()) return input;
  // First layer reads `input` directly (no staging copy of the batch).
  Tensor x = layers_.front()->forward(input, ws);
  for (std::size_t i = 1; i < layers_.size(); ++i)
    x = layers_[i]->forward(x, ws);
  return x;
}

Item Sequential::eval_item(const Item& in, EvalLane& lane) const {
  Item x = in;
  for (const EvalStep& step : plan_) {
    if (step.conv == nullptr) {
      x = step.layer->eval_item(x, lane);
      continue;
    }
    kernels::ConvEpilogue epilogue =
        step.bn->eval_affine(lane.push(step.bn->channels()));
    epilogue.relu = step.relu;
    x = step.conv->eval_item(x, lane, &epilogue);
  }
  return x;
}

Tensor Sequential::backward(const Tensor& grad_output, Workspace& ws) {
  Tensor g = grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
    g = (*it)->backward(g, ws);
  return g;
}

std::vector<Param*> Sequential::params() {
  std::vector<Param*> out;
  for (auto& layer : layers_)
    for (Param* p : layer->params()) out.push_back(p);
  return out;
}

std::vector<std::vector<float>*> Sequential::buffers() {
  std::vector<std::vector<float>*> out;
  for (auto& layer : layers_)
    for (auto* b : layer->buffers()) out.push_back(b);
  return out;
}

void Sequential::set_training(bool training) {
  training_ = training;
  for (auto& layer : layers_) layer->set_training(training);
}

std::string Sequential::summary() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < layers_.size(); ++i)
    os << "  (" << i << ") " << layers_[i]->name() << "\n";
  return os.str();
}

Residual::Residual(LayerPtr main, LayerPtr projection)
    : main_(std::move(main)), projection_(std::move(projection)) {
  detail::require(main_ != nullptr, "Residual: null main branch");
}

Tensor Residual::forward_train(const Tensor& input, Workspace& ws) const {
  Tensor main_out = main_->forward(input, ws);
  Tensor shortcut =
      projection_ != nullptr ? projection_->forward(input, ws) : input;
  detail::require(main_out.same_shape(shortcut),
                  "Residual::forward: branch shapes differ: " +
                      main_out.shape_string() + " vs " +
                      shortcut.shape_string());
  kernels::add_inplace(main_out.numel(), shortcut.data(), main_out.data());
  return main_out;
}

Item Residual::eval_item(const Item& in, EvalLane& lane) const {
  // Both branches read the block input, so neither may overwrite it.
  Item shared = in;
  shared.writable = false;
  const Item main_out = main_->eval_item(shared, lane);
  const Item shortcut =
      projection_ != nullptr ? projection_->eval_item(shared, lane) : in;
  if (!main_out.same_shape(shortcut))
    throw InvalidArgument("Residual::eval_item: branch shapes differ: " +
                          main_out.shape_string() + " vs " +
                          shortcut.shape_string());
  // main_out is read-only only when main returned the block input as is.
  float* y = lane.output_for(main_out);
  if (y != main_out.data)
    std::copy(main_out.data, main_out.data + main_out.numel(), y);
  kernels::add_inplace(main_out.numel(), shortcut.data, y);
  return main_out.with_data(y);
}

Tensor Residual::backward(const Tensor& grad_output, Workspace& ws) {
  Tensor grad_main = main_->backward(grad_output, ws);
  if (projection_ != nullptr) {
    Tensor grad_proj = projection_->backward(grad_output, ws);
    kernels::add_inplace(grad_main.numel(), grad_proj.data(),
                         grad_main.data());
    return grad_main;
  }
  // Identity shortcut: add grad_output directly.
  detail::require(grad_main.same_shape(grad_output),
                  "Residual::backward: shape mismatch");
  kernels::add_inplace(grad_main.numel(), grad_output.data(),
                       grad_main.data());
  return grad_main;
}

std::vector<Param*> Residual::params() {
  std::vector<Param*> out = main_->params();
  if (projection_ != nullptr)
    for (Param* p : projection_->params()) out.push_back(p);
  return out;
}

std::vector<std::vector<float>*> Residual::buffers() {
  std::vector<std::vector<float>*> out = main_->buffers();
  if (projection_ != nullptr)
    for (auto* b : projection_->buffers()) out.push_back(b);
  return out;
}

void Residual::set_training(bool training) {
  training_ = training;
  main_->set_training(training);
  if (projection_ != nullptr) projection_->set_training(training);
}

}  // namespace scalocate::nn
