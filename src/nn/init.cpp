#include "nn/init.hpp"

#include <cmath>

#include "common/error.hpp"

namespace scalocate::nn {

namespace {
std::size_t fan_in_of(const Tensor& weight) {
  detail::require(weight.rank() >= 2, "fan_in_of: rank must be >= 2");
  std::size_t fan_in = 1;
  for (std::size_t i = 1; i < weight.rank(); ++i) fan_in *= weight.dim(i);
  return fan_in;
}
}  // namespace

void he_normal_init(Tensor& weight, Rng& rng) {
  const double stddev = std::sqrt(2.0 / static_cast<double>(fan_in_of(weight)));
  for (float& w : weight.flat())
    w = static_cast<float>(rng.normal(0.0, stddev));
}

void init_module(Layer& module, Rng& rng) {
  for (Param* p : module.params()) {
    if (p->name.rfind("bn.", 0) == 0) continue;  // keep BN gamma=1, beta=0
    if (p->value.rank() >= 2) {
      he_normal_init(p->value, rng);
    } else {
      p->value.fill(0.0f);
    }
  }
}

}  // namespace scalocate::nn
