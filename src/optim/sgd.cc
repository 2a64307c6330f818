#include <cmath>

#include "src/optim/optimizer.h"
#include "src/tensor/kernels.h"
#include "src/tensor/simd.h"
#include "src/util/check.h"

namespace sampnn {

SgdOptimizer::SgdOptimizer(float lr, float momentum)
    : lr_(lr), momentum_(momentum) {
  SAMPNN_CHECK_GT(lr, 0.0f);
  SAMPNN_CHECK_GE(momentum, 0.0f);
  SAMPNN_CHECK_LT(momentum, 1.0f);
}

void SgdOptimizer::Step(Mlp* net, const MlpGrads& grads) {
  SAMPNN_CHECK(net != nullptr);
  CheckGradShapes(*net, grads);
  const bool use_momentum = momentum_ > 0.0f;
  if (use_momentum && velocity_.size() != grads.size()) {
    velocity_ = net->ZeroGrads();
  }
  for (size_t k = 0; k < grads.size(); ++k) {
    Layer& layer = net->layer(k);
    const LayerGrads& g = grads[k];
    if (use_momentum) {
      LayerGrads& vel = velocity_[k];
      // v = momentum * v + g; w -= lr * v, the three passes per range.
      float* w = layer.weights().data();
      float* v = vel.weights.data();
      const float* gd = g.weights.data();
      ParallelRanges(g.weights.size(), [&](size_t begin, size_t end) {
        const size_t len = end - begin;
        simd::Scale(len, momentum_, v + begin);
        simd::Axpy(len, 1.0f, gd + begin, v + begin);
        simd::Axpy(len, -lr_, v + begin, w + begin);
      });
      auto bias = layer.bias();
      for (size_t j = 0; j < bias.size(); ++j) {
        vel.bias[j] = momentum_ * vel.bias[j] + g.bias[j];
        bias[j] -= lr_ * vel.bias[j];
      }
    } else {
      Axpy(-lr_, g.weights, &layer.weights());
      auto bias = layer.bias();
      for (size_t j = 0; j < bias.size(); ++j) bias[j] -= lr_ * g.bias[j];
    }
  }
}

void SgdOptimizer::Reset() { velocity_.clear(); }

}  // namespace sampnn
