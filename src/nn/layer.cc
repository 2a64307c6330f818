#include "src/nn/layer.h"

#include <algorithm>

#include "src/tensor/kernels.h"

namespace sampnn {

Layer::Layer(size_t in_dim, size_t out_dim, Activation act, Initializer init,
             Rng& rng)
    : weights_(InitializeWeights(init, in_dim, out_dim, rng)),
      bias_(out_dim, 0.0f),
      act_(act) {}

void Layer::ForwardLinear(std::span<const float> x, std::span<float> z) const {
  SAMPNN_DCHECK_EQ(x.size(), in_dim());
  SAMPNN_DCHECK_EQ(z.size(), out_dim());
  VecMat(x, weights_, bias_, z);
}

void Layer::Activate(const Matrix& z, Matrix* a) const {
  SAMPNN_CHECK(a != nullptr);
  if (a->rows() != z.rows() || a->cols() != z.cols()) {
    *a = Matrix(z.rows(), z.cols());
  }
  ApplyActivation(act_, std::span<const float>(z.data(), z.size()),
                  std::span<float>(a->data(), a->size()));
}

void Layer::Activate(std::span<const float> z, std::span<float> a) const {
  SAMPNN_DCHECK_EQ(z.size(), a.size());
  ApplyActivation(act_, z, a);
}

LayerGrads LayerGrads::ZerosLike(const Layer& layer) {
  LayerGrads g;
  g.weights = Matrix(layer.in_dim(), layer.out_dim());
  g.bias.assign(layer.out_dim(), 0.0f);
  return g;
}

void LayerGrads::SetZero() {
  weights.SetZero();
  std::fill(bias.begin(), bias.end(), 0.0f);
}

}  // namespace sampnn
