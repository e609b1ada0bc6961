#include "nn/layer.hpp"

#include <sstream>

namespace scalocate::nn {

std::size_t Item::numel() const {
  std::size_t n = 1;
  for (std::size_t i = 0; i < rank; ++i) n *= dims[i];
  return n;
}

bool Item::same_shape(const Item& other) const {
  if (rank != other.rank) return false;
  for (std::size_t i = 0; i < rank; ++i)
    if (dims[i] != other.dims[i]) return false;
  return true;
}

Item Item::with_data(float* out) const {
  Item item = *this;
  item.data = out;
  item.writable = true;
  return item;
}

std::string Item::shape_string() const {
  std::ostringstream os;
  os << "item (";
  for (std::size_t i = 0; i < rank; ++i) os << (i > 0 ? ", " : "") << dims[i];
  os << ")";
  return os.str();
}

float* EvalLane::push(std::size_t count) {
  if (top_ == slabs_.size()) slabs_.emplace_back();
  std::vector<float>& slab = slabs_[top_++];
  if (slab.size() < count) slab.resize(count);
  return slab.data();
}

float* EvalLane::output_for(const Item& in) {
  // A writable item always points into one of this lane's slabs, which
  // are mutable; only the containers' read-only inputs are truly const.
  return in.writable ? const_cast<float*>(in.data) : push(in.numel());
}

EvalLane& Workspace::eval_lane(std::size_t index) {
  while (eval_lanes_.size() <= index) eval_lanes_.emplace_back();
  return eval_lanes_[index];
}

}  // namespace scalocate::nn
