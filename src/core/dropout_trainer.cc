#include "src/core/dropout_trainer.h"

#include <algorithm>
#include <cmath>

#include "src/util/binary_io.h"

namespace sampnn {

DropoutMasks::DropoutMasks(size_t num_hidden, float keep_prob, uint64_t seed)
    : rng_(seed), keep_prob_(keep_prob), masks_(num_hidden) {}

const Matrix* DropoutMasks::Mask(size_t k, const Matrix& z) {
  Matrix& mask = masks_[k];
  if (mask.rows() != z.rows() || mask.cols() != z.cols()) {
    mask = Matrix(z.rows(), z.cols());
  }
  Fill(z, &mask);
  return &mask;
}

void DropoutMasks::Fill(const Matrix& /*z*/, Matrix* mask) {
  const float inv_keep = 1.0f / keep_prob_;
  float* md = mask->data();
  for (size_t i = 0; i < mask->size(); ++i) {
    md[i] = rng_.NextBernoulli(keep_prob_) ? inv_keep : 0.0f;
  }
}

AdaptiveDropoutMasks::AdaptiveDropoutMasks(
    size_t num_hidden, const AdaptiveDropoutOptions& options, uint64_t seed)
    : DropoutMasks(num_hidden, options.target_prob, seed),
      options_(options),
      beta_(std::log(options.target_prob / (1.0f - options.target_prob))) {}

void AdaptiveDropoutMasks::Fill(const Matrix& z, Matrix* mask) {
  const float* zd = z.data();
  float* md = mask->data();
  for (size_t i = 0; i < mask->size(); ++i) {
    // Standout keep probability, tilted towards units with strong (positive)
    // pre-activations.
    float pi = 1.0f / (1.0f + std::exp(-(options_.alpha * zd[i] + beta_)));
    pi = std::max(pi, options_.min_prob);
    md[i] = rng().NextBernoulli(pi) ? 1.0f / pi : 0.0f;
  }
}

MaskedTrainer::MaskedTrainer(const char* name, Mlp net,
                             std::unique_ptr<Optimizer> optimizer,
                             std::unique_ptr<DropoutMasks> masks)
    : DenseTrainer(name, std::move(net), std::move(optimizer)),
      masks_(std::move(masks)) {
  SAMPNN_CHECK(masks_ != nullptr);
}

Status MaskedTrainer::SaveExtraState(std::ostream& out) const {
  WriteRngState(out, masks_->rng().GetState());
  return DenseTrainer::SaveExtraState(out);
}

Status MaskedTrainer::LoadExtraState(std::istream& in) {
  SAMPNN_ASSIGN_OR_RETURN(RngState rng_state, ReadRngState(in));
  SAMPNN_RETURN_NOT_OK(DenseTrainer::LoadExtraState(in));
  masks_->rng().SetState(rng_state);
  return Status::OK();
}

}  // namespace sampnn
