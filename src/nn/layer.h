// A fully-connected layer: z = a_prev * W + b, a = f(z) (paper §4.1).
//
// Layers expose their weights mutably because the sampling-based trainers
// (ALSH-approx in particular) bypass the dense forward/backward and operate
// on columns of W directly.

#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "src/nn/activation.h"
#include "src/nn/initializer.h"
#include "src/tensor/matrix.h"
#include "src/util/rng.h"

namespace sampnn {

/// \brief One dense layer with weights W (in x out), bias b (out), and an
/// elementwise activation.
class Layer {
 public:
  /// Constructs with initialized weights and zero bias.
  Layer(size_t in_dim, size_t out_dim, Activation act, Initializer init,
        Rng& rng);

  size_t in_dim() const { return weights_.rows(); }
  size_t out_dim() const { return weights_.cols(); }
  Activation activation() const { return act_; }

  /// Weight matrix; column j is the incoming weight vector of node j
  /// (the paper's W^k_{*j}).
  Matrix& weights() { return weights_; }
  const Matrix& weights() const { return weights_; }

  /// Bias row vector (length out_dim).
  std::span<float> bias() { return bias_; }
  std::span<const float> bias() const { return bias_; }

  /// Dense single-sample forward into `z` (length out_dim): z = x W + b,
  /// activation NOT applied. The batch pass is Mlp::Forward's loop.
  void ForwardLinear(std::span<const float> x, std::span<float> z) const;

  /// Applies this layer's activation: a = f(z).
  void Activate(const Matrix& z, Matrix* a) const;
  void Activate(std::span<const float> z, std::span<float> a) const;

  /// Number of trainable parameters (weights + bias).
  size_t num_params() const { return weights_.size() + bias_.size(); }

 private:
  Matrix weights_;
  std::vector<float> bias_;
  Activation act_;
};

/// Per-layer gradients produced by a backward pass.
struct LayerGrads {
  Matrix weights;           ///< dL/dW, same shape as Layer::weights()
  std::vector<float> bias;  ///< dL/db, length out_dim

  /// Zero-initialized gradients shaped for `layer`.
  static LayerGrads ZerosLike(const Layer& layer);
  /// Resets to zero without reallocating.
  void SetZero();
};

}  // namespace sampnn
