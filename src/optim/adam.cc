#include <cmath>

#include "src/optim/optimizer.h"
#include "src/tensor/kernels.h"
#include "src/util/check.h"

namespace sampnn {

namespace {

// One contiguous range of the weight sweep. Restrict-qualified pointers let
// GCC vectorize the square root and the division (sqrtps/divps); through a
// lambda's by-reference captures it emitted scalar sqrtss/divss instead.
void AdamRange(size_t begin, size_t end, float beta1, float beta2,
               float step_size, float eps, const float* __restrict__ g,
               float* __restrict__ m, float* __restrict__ v,
               float* __restrict__ w) {
  for (size_t i = begin; i < end; ++i) {
    m[i] = beta1 * m[i] + (1.0f - beta1) * g[i];
    v[i] = beta2 * v[i] + (1.0f - beta2) * g[i] * g[i];
    w[i] -= step_size * m[i] / (std::sqrt(v[i]) + eps);
  }
}

}  // namespace

AdamOptimizer::AdamOptimizer(float lr, float beta1, float beta2, float eps)
    : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {
  SAMPNN_CHECK_GT(lr, 0.0f);
  SAMPNN_CHECK(beta1 >= 0.0f && beta1 < 1.0f);
  SAMPNN_CHECK(beta2 >= 0.0f && beta2 < 1.0f);
}

void AdamOptimizer::Step(Mlp* net, const MlpGrads& grads) {
  SAMPNN_CHECK(net != nullptr);
  CheckGradShapes(*net, grads);
  if (m_.size() != grads.size()) {
    m_ = net->ZeroGrads();
    v_ = net->ZeroGrads();
    t_ = 0;
  }
  ++t_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  const float step_size = lr_ * std::sqrt(bc2) / bc1;

  for (size_t k = 0; k < grads.size(); ++k) {
    Layer& layer = net->layer(k);
    const LayerGrads& g = grads[k];
    float* w = layer.weights().data();
    float* m = m_[k].weights.data();
    float* v = v_[k].weights.data();
    const float* gd = g.weights.data();
    ParallelRanges(g.weights.size(), [&](size_t begin, size_t end) {
      AdamRange(begin, end, beta1_, beta2_, step_size, eps_, gd, m, v, w);
    });
    auto bias = layer.bias();
    for (size_t j = 0; j < bias.size(); ++j) {
      float& mb = m_[k].bias[j];
      float& vb = v_[k].bias[j];
      mb = beta1_ * mb + (1.0f - beta1_) * g.bias[j];
      vb = beta2_ * vb + (1.0f - beta2_) * g.bias[j] * g.bias[j];
      bias[j] -= step_size * mb / (std::sqrt(vb) + eps_);
    }
  }
}

void AdamOptimizer::Reset() {
  m_.clear();
  v_.clear();
  t_ = 0;
}

}  // namespace sampnn
