#include "nn/layer.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"
#include "nn/kernels/parallel.hpp"

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

EvalLane& EvalLane::local() {
  thread_local EvalLane lane;
  return lane;
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

Tensor Layer::forward(const Tensor& input, Workspace& ws) const {
  if (training_) return forward_train(input, ws);
  if (input.rank() < 1 || input.rank() > Item::kMaxRank + 1)
    throw InvalidArgument("eval forward: expected rank 1 to " +
                          std::to_string(Item::kMaxRank + 1) + ", got " +
                          input.shape_string());
  // No backward-only cache survives an eval forward: a stray backward
  // throws instead of reading a stale training activation.
  ws.clear();
  Item proto;
  proto.rank = input.rank() - 1;
  for (std::size_t i = 0; i < proto.rank; ++i) proto.dims[i] = input.dim(i + 1);
  const std::size_t row = proto.numel();
  const std::size_t batch = input.dim(0);
  // Item 0 fixes the output shape; an empty batch runs one zero item.
  const std::vector<float> zeros(batch == 0 ? row : 0);
  const float* data = batch == 0 ? zeros.data() : input.data();
  const auto item = [&](std::size_t b) {
    Item x = proto;
    x.data = data + b * row;
    return x;
  };

  EvalLane& lane0 = EvalLane::local();
  lane0.rewind();
  const Item first = eval_item(item(0), lane0);
  std::vector<std::size_t> shape(first.rank + 1, batch);
  std::copy(first.dims.begin(), first.dims.begin() + first.rank,
            shape.begin() + 1);
  Tensor out(std::move(shape));
  if (batch == 0) return out;
  const std::size_t out_row = first.numel();
  std::copy(first.data, first.data + out_row, out.data());

  const std::size_t rest = batch - 1;
  const std::size_t budget = kernels::intra_op_threads();
  const std::size_t chunks = budget > 1 && rest > 1 &&
                                     !kernels::in_parallel_region()
                                 ? std::min(budget, rest)
                                 : 1;
  const auto run_chunk = [&](std::size_t c) {
    EvalLane& lane = EvalLane::local();
    const auto [b0, len] = kernels::chunk_range(rest, chunks, c);
    for (std::size_t b = 1 + b0; b < 1 + b0 + len; ++b) {
      lane.rewind();
      const Item y = eval_item(item(b), lane);
      std::copy(y.data, y.data + out_row, out.data() + b * out_row);
    }
  };
  if (chunks == 1)
    run_chunk(0);  // inline: parallel_for's std::function would allocate
  else
    kernels::parallel_for(chunks, run_chunk);
  return out;
}

}  // namespace scalocate::nn
