// Multilayer perceptron: the model under study (paper §4.1, Figure 1).
//
// The Mlp owns the layers and holds the only batch forward loop and the
// only batch backward loop (Eq. 1, in the batch form of Wesselink et al.).
// Every dense method runs those two loops under a DensePolicy: the policy
// may mask each hidden layer's activations and deltas (Dropout,
// Adaptive-Dropout) and decides how the three products A·W, aᵀ·δ and δ·Wᵀ
// are computed (MC-approx samples them). The base policy is the exact
// pass. Layers are exposed mutably because optimizers and ALSH-approx's
// sparse per-sample path update W in place.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/nn/layer.h"
#include "src/util/deadline.h"
#include "src/util/status.h"

namespace sampnn {

/// Architecture and initialization options for an Mlp.
struct MlpConfig {
  size_t input_dim = 0;              ///< m_i in the paper
  size_t output_dim = 0;             ///< m_o (number of classes)
  std::vector<size_t> hidden_dims;   ///< n per hidden layer (paper uses equal n)
  Activation hidden_activation = Activation::kRelu;  ///< paper default §8.4
  Initializer initializer = Initializer::kHe;
  uint64_t seed = 42;

  /// Convenience: `depth` hidden layers of `width` units each.
  static MlpConfig Uniform(size_t input_dim, size_t output_dim, size_t depth,
                           size_t width);
};

/// Per-pass intermediate storage, reused across steps to avoid
/// reallocation: z^k and a^k for every layer, the masks the forward pass
/// applied, and the backward pass's deltas.
struct MlpWorkspace {
  std::vector<Matrix> z;  ///< z[k]: batch x out_dim(k)
  std::vector<Matrix> a;  ///< a[k] = f(z[k]) ⊙ mask[k]; a.back() = logits
  /// masks[k] for each hidden layer k, as the policy returned it (nullptr =
  /// unmasked); the backward pass applies them to the deltas.
  std::vector<const Matrix*> masks;
  Matrix delta;       ///< δ of the layer being processed; ends as δ⁰
  Matrix delta_prev;  ///< scratch for δ^{k-1}
};

/// \brief What one dense pass does at each layer k: an optional mask on a
/// hidden layer's activations, and the three matrix products. The base
/// class is the exact pass; it holds no state, so one instance may serve
/// concurrent passes. Methods override only what they change: Dropout
/// and Adaptive-Dropout the mask, MC-approx the products.
class DensePolicy {
 public:
  virtual ~DensePolicy() = default;

  /// Mask for hidden layer k, given its pre-activations z; nullptr leaves
  /// the layer unmasked. The mask multiplies a^k in the forward pass and
  /// δ^k in the backward pass, so it must stay valid until then.
  virtual const Matrix* Mask(size_t k, const Matrix& z);

  /// z = a · W, layer k's product before the bias. `z` arrives shaped.
  virtual Status Forward(size_t k, const Matrix& a, const Matrix& w,
                         Matrix* z);
  /// g = aᵀ · δ, layer k's weight gradient. `g` arrives shaped.
  virtual Status WeightGrad(size_t k, const Matrix& a, const Matrix& delta,
                            Matrix* g);
  /// out = δ · Wᵀ, layer k's delta pushed back to layer k-1 (before
  /// f'(z^{k-1}) and the mask). `out` arrives shaped.
  virtual Status DeltaBack(size_t k, const Matrix& delta, const Matrix& w,
                           Matrix* out);
};

/// Gradients for every layer, index-aligned with Mlp::layer(k).
using MlpGrads = std::vector<LayerGrads>;

/// \brief A fully-connected feedforward network.
///
/// The output layer is linear (logits); pair with SoftmaxCrossEntropy for
/// the paper's log-softmax + NLL setting.
class Mlp {
 public:
  /// Validates the config and builds the network. Errors on zero dims.
  static StatusOr<Mlp> Create(const MlpConfig& config);

  /// Number of layers (hidden layers + output layer).
  size_t num_layers() const { return layers_.size(); }
  /// Number of hidden layers (num_layers() - 1).
  size_t num_hidden_layers() const { return layers_.size() - 1; }

  Layer& layer(size_t k) { return layers_[k]; }
  const Layer& layer(size_t k) const { return layers_[k]; }

  size_t input_dim() const { return layers_.front().in_dim(); }
  size_t output_dim() const { return layers_.back().out_dim(); }

  /// Total trainable parameter count.
  size_t num_params() const;

  /// The batch forward pass under `policy`: z^k = a^{k-1} W^k + b^k and
  /// a^k = f(z^k) ⊙ mask^k, masks on hidden layers only. Fills `ws`; the
  /// logits end in ws->a.back(). InvalidArgument when `input` has the
  /// wrong width. With a `ctx`, polls it between layers and inside the
  /// parallel GEMM dispatch (row-block granularity, via
  /// ScopedKernelCancellation) and returns ctx->StopStatus() once it
  /// fires; the workspace is then unspecified and must be discarded.
  Status Forward(const Matrix& input, DensePolicy& policy, MlpWorkspace* ws,
                 const CancelContext* ctx = nullptr) const;

  /// Exact forward; returns the logits (ws->a.back()). Aborts on an input
  /// of the wrong width.
  const Matrix& Forward(const Matrix& input, MlpWorkspace* ws) const;

  /// Exact cancellable forward for the serving layer (see Forward above).
  Status ForwardCancellable(const Matrix& input, const CancelContext& ctx,
                            MlpWorkspace* ws) const;

  /// The batch backward pass (Eq. 1) under `policy`, after a Forward on
  /// `input` under the same policy into `ws`. `grad_logits` is dL/dlogits:
  ///   grad W^k = a^{k-1 T} δ^k,  grad b^k = column sums of δ^k,
  ///   δ^{k-1} = (δ^k W^{k T}) ⊙ f'(z^{k-1}) ⊙ mask^{k-1}.
  /// Writes `grads` (shaped on first use) and leaves δ⁰ in ws->delta.
  Status Backward(const Matrix& input, const Matrix& grad_logits,
                  DensePolicy& policy, MlpWorkspace* ws,
                  MlpGrads* grads) const;

  /// Exact backward after an exact Forward on `input` into `ws`.
  void Backward(const Matrix& input, MlpWorkspace& ws,
                const Matrix& grad_logits, MlpGrads* grads) const;

  /// Zero-initialized gradient holder shaped like this network.
  MlpGrads ZeroGrads() const;

  /// Argmax class predictions for a batch.
  std::vector<int32_t> Predict(const Matrix& input) const;

  /// Returns a deep copy with identical parameters.
  Mlp Clone() const { return *this; }

  /// One-line architecture summary, e.g. "784-1000-1000-1000-10 (relu)".
  std::string ArchitectureString() const;

 private:
  explicit Mlp(std::vector<Layer> layers) : layers_(std::move(layers)) {}
  std::vector<Layer> layers_;
};

}  // namespace sampnn
