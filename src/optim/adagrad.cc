#include <cmath>

#include "src/optim/optimizer.h"
#include "src/tensor/kernels.h"
#include "src/util/check.h"

namespace sampnn {

namespace {

// One contiguous range of the weight sweep; restrict-qualified for the same
// vectorization reason as Adam's (adam.cc).
void AdagradRange(size_t begin, size_t end, float lr, float eps,
                  const float* __restrict__ g, float* __restrict__ acc,
                  float* __restrict__ w) {
  for (size_t i = begin; i < end; ++i) {
    acc[i] += g[i] * g[i];
    w[i] -= lr * g[i] / (std::sqrt(acc[i]) + eps);
  }
}

}  // namespace

AdagradOptimizer::AdagradOptimizer(float lr, float eps) : lr_(lr), eps_(eps) {
  SAMPNN_CHECK_GT(lr, 0.0f);
}

void AdagradOptimizer::Step(Mlp* net, const MlpGrads& grads) {
  SAMPNN_CHECK(net != nullptr);
  CheckGradShapes(*net, grads);
  if (accum_.size() != grads.size()) accum_ = net->ZeroGrads();

  for (size_t k = 0; k < grads.size(); ++k) {
    Layer& layer = net->layer(k);
    const LayerGrads& g = grads[k];
    float* w = layer.weights().data();
    float* acc = accum_[k].weights.data();
    const float* gd = g.weights.data();
    ParallelRanges(g.weights.size(), [&](size_t begin, size_t end) {
      AdagradRange(begin, end, lr_, eps_, gd, acc, w);
    });
    auto bias = layer.bias();
    for (size_t j = 0; j < bias.size(); ++j) {
      float& ab = accum_[k].bias[j];
      ab += g.bias[j] * g.bias[j];
      bias[j] -= lr_ * g.bias[j] / (std::sqrt(ab) + eps_);
    }
  }
}

void AdagradOptimizer::Reset() { accum_.clear(); }

}  // namespace sampnn
