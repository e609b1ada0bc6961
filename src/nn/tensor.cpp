#include "nn/tensor.hpp"

#include <numeric>
#include <sstream>

#include "common/error.hpp"

namespace scalocate::nn {

Tensor::Tensor(std::vector<std::size_t> shape) : shape_(std::move(shape)) {
  compute_strides();
  std::size_t n = 1;
  for (std::size_t d : shape_) n *= d;
  data_.assign(n, 0.0f);
}

Tensor::Tensor(std::initializer_list<std::size_t> shape)
    : Tensor(std::vector<std::size_t>(shape)) {}

Tensor Tensor::from_data(std::vector<std::size_t> shape,
                         std::vector<float> data) {
  Tensor t;
  t.shape_ = std::move(shape);
  t.compute_strides();
  std::size_t n = 1;
  for (std::size_t d : t.shape_) n *= d;
  detail::require(n == data.size(),
                  "Tensor::from_data: data size does not match shape");
  t.data_ = std::move(data);
  return t;
}

std::size_t Tensor::dim(std::size_t axis) const {
  // Not detail::require: its std::string message would allocate on every
  // call, and dim() runs on every forward.
  if (axis >= shape_.size())
    throw InvalidArgument("Tensor::dim: axis out of range");
  return shape_[axis];
}

void Tensor::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

Tensor Tensor::reshaped(std::vector<std::size_t> new_shape) const {
  std::size_t n = 1;
  for (std::size_t d : new_shape) n *= d;
  detail::require(n == numel(), "Tensor::reshaped: numel mismatch");
  return from_data(std::move(new_shape), data_);
}

Tensor& Tensor::reshape(std::vector<std::size_t> new_shape) {
  std::size_t n = 1;
  for (std::size_t d : new_shape) n *= d;
  detail::require(n == numel(),
                  "Tensor::reshape: numel mismatch (have " + shape_string() +
                      ")");
  shape_ = std::move(new_shape);
  compute_strides();
  return *this;
}

Tensor& Tensor::resize(std::vector<std::size_t> new_shape) {
  std::size_t n = 1;
  for (std::size_t d : new_shape) n *= d;
  shape_ = std::move(new_shape);
  compute_strides();
  // vector::resize keeps the allocation on shrink and regrow-within-
  // capacity, so a reused staging tensor settles into one allocation.
  data_.resize(n, 0.0f);
  return *this;
}

std::string Tensor::shape_string() const {
  std::ostringstream os;
  os << "(";
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    if (i > 0) os << ", ";
    os << shape_[i];
  }
  os << ")";
  return os.str();
}

void Tensor::compute_strides() {
  stride_.assign(shape_.size(), 1);
  for (std::size_t i = shape_.size(); i-- > 1;)
    stride_[i - 1] = stride_[i] * shape_[i];
}

}  // namespace scalocate::nn
