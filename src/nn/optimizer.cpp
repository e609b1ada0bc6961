#include "nn/optimizer.hpp"

#include <cmath>

namespace scalocate::nn {

Adam::Adam(std::vector<Param*> params, float lr, float beta1, float beta2,
           float eps)
    : params_(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps) {
  m_.resize(params_.size());
  v_.resize(params_.size());
  for (std::size_t i = 0; i < params_.size(); ++i) {
    m_[i].assign(params_[i]->value.numel(), 0.0f);
    v_[i].assign(params_[i]->value.numel(), 0.0f);
  }
}

void Adam::step() {
  ++t_;
  const double bias1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bias2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Param& p = *params_[i];
    float* value = p.value.data();
    const float* grad = p.grad.data();
    float* m = m_[i].data();
    float* v = v_[i].data();
    for (std::size_t j = 0; j < p.value.numel(); ++j) {
      m[j] = beta1_ * m[j] + (1.0f - beta1_) * grad[j];
      v[j] = beta2_ * v[j] + (1.0f - beta2_) * grad[j] * grad[j];
      const double mhat = static_cast<double>(m[j]) / bias1;
      const double vhat = static_cast<double>(v[j]) / bias2;
      value[j] -= static_cast<float>(static_cast<double>(lr_) * mhat /
                                     (std::sqrt(vhat) + static_cast<double>(eps_)));
    }
  }
}

void Adam::zero_grad() {
  for (Param* p : params_) p->zero_grad();
}

}  // namespace scalocate::nn
