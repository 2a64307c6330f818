// Dropout-family trainers (paper §5.1): sample a mask over each hidden
// layer's nodes every step; dropped nodes output zero and receive no
// gradient. Masks use inverted scaling (kept activations multiplied by
// 1/keep_prob) so evaluation runs the plain dense forward.
//
// As in the paper's PyTorch implementations, the mask is *applied to* dense
// products rather than skipping them, so the dropout pair pays mask
// construction/multiplication overhead on top of dense cost — the effect
// the paper measures in Table 4 and attributes to cache misses in §9.4.
//
// Each method is a mask policy for the shared dense step (DenseTrainer);
// the trainer adds only the masks' RNG to the checkpoint.

#pragma once

#include "src/core/dense_trainer.h"
#include "src/util/rng.h"

namespace sampnn {

/// \brief DROPOUT's masks (Srivastava et al.): keep each hidden node
/// i.i.d. with fixed probability `keep_prob` (paper: p = 0.05 to match
/// ALSH active sets).
class DropoutMasks : public DensePolicy {
 public:
  DropoutMasks(size_t num_hidden, float keep_prob, uint64_t seed);

  /// Draws hidden layer k's mask, shaped like `z`.
  const Matrix* Mask(size_t k, const Matrix& z) override;

  /// The mask stream (checkpointed by MaskedTrainer).
  Rng& rng() { return rng_; }

 protected:
  /// Fills `mask` (shaped like `z`) with 0 for dropped units and the
  /// inverse keep probability for kept units.
  virtual void Fill(const Matrix& z, Matrix* mask);

 private:
  Rng rng_;
  float keep_prob_;
  // One per hidden layer, sized once: MlpWorkspace::masks points into it
  // from the forward pass to the backward pass.
  std::vector<Matrix> masks_;
};

/// \brief ADAPTIVE-DROPOUT's masks (Ba & Frey standout): keep node j with
/// data-dependent probability pi_j = sigmoid(alpha * z_j + beta), an
/// approximation of the Bayesian posterior over architectures. beta is set
/// to logit(target_prob) so the expected keep rate matches the paper's p.
class AdaptiveDropoutMasks : public DropoutMasks {
 public:
  AdaptiveDropoutMasks(size_t num_hidden,
                       const AdaptiveDropoutOptions& options, uint64_t seed);

 protected:
  void Fill(const Matrix& z, Matrix* mask) override;

 private:
  AdaptiveDropoutOptions options_;
  float beta_;
};

/// \brief The dense step under Dropout or Adaptive-Dropout masks.
class MaskedTrainer : public DenseTrainer {
 public:
  MaskedTrainer(const char* name, Mlp net,
                std::unique_ptr<Optimizer> optimizer,
                std::unique_ptr<DropoutMasks> masks);

 protected:
  DensePolicy& policy() override { return *masks_; }
  Status SaveExtraState(std::ostream& out) const override;
  Status LoadExtraState(std::istream& in) override;

 private:
  std::unique_ptr<DropoutMasks> masks_;
};

}  // namespace sampnn
