#include "src/nn/mlp.h"

#include <sstream>
#include <utility>

#include "src/nn/loss.h"
#include "src/tensor/kernel_config.h"
#include "src/tensor/kernels.h"
#include "src/util/rng.h"

namespace sampnn {

MlpConfig MlpConfig::Uniform(size_t input_dim, size_t output_dim, size_t depth,
                             size_t width) {
  MlpConfig cfg;
  cfg.input_dim = input_dim;
  cfg.output_dim = output_dim;
  cfg.hidden_dims.assign(depth, width);
  return cfg;
}

StatusOr<Mlp> Mlp::Create(const MlpConfig& config) {
  if (config.input_dim == 0) {
    return Status::InvalidArgument("MlpConfig.input_dim must be > 0");
  }
  if (config.output_dim == 0) {
    return Status::InvalidArgument("MlpConfig.output_dim must be > 0");
  }
  for (size_t d : config.hidden_dims) {
    if (d == 0) {
      return Status::InvalidArgument("hidden layer width must be > 0");
    }
  }
  Rng rng(config.seed);
  std::vector<Layer> layers;
  layers.reserve(config.hidden_dims.size() + 1);
  size_t in_dim = config.input_dim;
  for (size_t width : config.hidden_dims) {
    layers.emplace_back(in_dim, width, config.hidden_activation,
                        config.initializer, rng);
    in_dim = width;
  }
  // Output layer is linear: logits feed SoftmaxCrossEntropy.
  layers.emplace_back(in_dim, config.output_dim, Activation::kLinear,
                      config.initializer, rng);
  return Mlp(std::move(layers));
}

size_t Mlp::num_params() const {
  size_t total = 0;
  for (const Layer& l : layers_) total += l.num_params();
  return total;
}

const Matrix* DensePolicy::Mask(size_t /*k*/, const Matrix& /*z*/) {
  return nullptr;
}

Status DensePolicy::Forward(size_t /*k*/, const Matrix& a, const Matrix& w,
                            Matrix* z) {
  Gemm(a, w, z);
  return Status::OK();
}

Status DensePolicy::WeightGrad(size_t /*k*/, const Matrix& a,
                               const Matrix& delta, Matrix* g) {
  GemmTransA(a, delta, g);
  return Status::OK();
}

Status DensePolicy::DeltaBack(size_t /*k*/, const Matrix& delta,
                              const Matrix& w, Matrix* out) {
  GemmTransB(delta, w, out);
  return Status::OK();
}

namespace {

// Reallocates `m` only when its shape changes. Every buffer shaped here is
// then overwritten whole (a beta = 0 product or an elementwise pass), so
// reusing one across steps never changes a bit.
void ShapeAs(Matrix* m, size_t rows, size_t cols) {
  if (m->rows() != rows || m->cols() != cols) *m = Matrix(rows, cols);
}

}  // namespace

Status Mlp::Forward(const Matrix& input, DensePolicy& policy, MlpWorkspace* ws,
                    const CancelContext* ctx) const {
  SAMPNN_CHECK(ws != nullptr);
  if (input.cols() != input_dim()) {
    return Status::InvalidArgument(
        "Mlp::Forward: input has " + std::to_string(input.cols()) +
        " features, network expects " + std::to_string(input_dim()));
  }
  // Without a ctx of its own the pass keeps the caller's kernel context.
  const ScopedKernelCancellation scope(ctx != nullptr
                                           ? ctx
                                           : CurrentKernelCancellation());
  ws->z.resize(layers_.size());
  ws->a.resize(layers_.size());
  ws->masks.assign(num_hidden_layers(), nullptr);
  const Matrix* prev = &input;
  for (size_t k = 0; k < layers_.size(); ++k) {
    if (ctx != nullptr && ctx->ShouldStop()) return ctx->StopStatus();
    const Layer& l = layers_[k];
    Matrix& z = ws->z[k];
    ShapeAs(&z, prev->rows(), l.out_dim());
    SAMPNN_RETURN_NOT_OK(policy.Forward(k, *prev, l.weights(), &z));
    AddRowVector(&z, l.bias());
    l.Activate(z, &ws->a[k]);
    if (k < ws->masks.size()) {
      ws->masks[k] = policy.Mask(k, z);
      if (ws->masks[k] != nullptr) HadamardInPlace(&ws->a[k], *ws->masks[k]);
    }
    prev = &ws->a[k];
  }
  // A dispatch cancelled mid-product leaves the last z/a garbage; report it.
  if (ctx != nullptr && ctx->ShouldStop()) return ctx->StopStatus();
  return Status::OK();
}

const Matrix& Mlp::Forward(const Matrix& input, MlpWorkspace* ws) const {
  DensePolicy exact;
  Forward(input, exact, ws).Abort("Mlp::Forward");
  return ws->a.back();
}

Status Mlp::ForwardCancellable(const Matrix& input, const CancelContext& ctx,
                               MlpWorkspace* ws) const {
  DensePolicy exact;
  return Forward(input, exact, ws, &ctx);
}

Status Mlp::Backward(const Matrix& input, const Matrix& grad_logits,
                     DensePolicy& policy, MlpWorkspace* ws,
                     MlpGrads* grads) const {
  SAMPNN_CHECK(ws != nullptr);
  SAMPNN_CHECK(grads != nullptr);
  SAMPNN_CHECK_EQ(ws->z.size(), layers_.size());
  SAMPNN_CHECK_EQ(ws->a.size(), layers_.size());
  SAMPNN_CHECK_EQ(ws->masks.size(), num_hidden_layers());
  SAMPNN_CHECK_EQ(grad_logits.rows(), input.rows());
  SAMPNN_CHECK_EQ(grad_logits.cols(), output_dim());
  SAMPNN_DCHECK_EQ(input.cols(), input_dim());
  if (grads->size() != layers_.size()) *grads = ZeroGrads();

  // delta starts as dL/dlogits; the output layer is linear so f'(z) = 1.
  Matrix& delta = ws->delta;
  Matrix& delta_prev = ws->delta_prev;
  delta = grad_logits;
  for (size_t k = layers_.size(); k-- > 0;) {
    const Layer& l = layers_[k];
    LayerGrads& g = (*grads)[k];
    if (g.weights.rows() != l.in_dim() || g.weights.cols() != l.out_dim()) {
      g = LayerGrads::ZerosLike(l);
    }
    const Matrix& a_prev = (k == 0) ? input : ws->a[k - 1];
    // grad_W^k = a^{k-1 T} * delta^k; grad_b^k = column sums of delta^k.
    SAMPNN_RETURN_NOT_OK(policy.WeightGrad(k, a_prev, delta, &g.weights));
    g.bias.resize(l.out_dim());
    ColumnSums(delta, g.bias);
    if (k > 0) {
      // delta^{k-1} = (delta^k * W^{k T}) ⊙ f'(z^{k-1}) ⊙ mask^{k-1} (Eq. 1)
      ShapeAs(&delta_prev, delta.rows(), l.in_dim());
      SAMPNN_RETURN_NOT_OK(policy.DeltaBack(k, delta, l.weights(), &delta_prev));
      MultiplyActivationGrad(layers_[k - 1].activation(), ws->z[k - 1],
                             &delta_prev);
      if (const Matrix* mask = ws->masks[k - 1]) {
        HadamardInPlace(&delta_prev, *mask);
      }
      std::swap(delta, delta_prev);
    }
  }
  return Status::OK();
}

void Mlp::Backward(const Matrix& input, MlpWorkspace& ws,
                   const Matrix& grad_logits, MlpGrads* grads) const {
  DensePolicy exact;
  Backward(input, grad_logits, exact, &ws, grads).Abort("Mlp::Backward");
}

MlpGrads Mlp::ZeroGrads() const {
  MlpGrads grads;
  grads.reserve(layers_.size());
  for (const Layer& l : layers_) grads.push_back(LayerGrads::ZerosLike(l));
  return grads;
}

std::vector<int32_t> Mlp::Predict(const Matrix& input) const {
  MlpWorkspace ws;
  const Matrix& logits = Forward(input, &ws);
  return SoftmaxCrossEntropy::Predict(logits);
}

std::string Mlp::ArchitectureString() const {
  std::ostringstream os;
  os << input_dim();
  for (const Layer& l : layers_) os << "-" << l.out_dim();
  os << " (" << ActivationToString(layers_.front().activation()) << ")";
  return os.str();
}

}  // namespace sampnn
