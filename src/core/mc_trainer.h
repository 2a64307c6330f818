// MC-approx (Adelman et al., paper §6.2): exact feedforward, Monte-Carlo
// approximated backpropagation. Both backward matrix products are replaced
// by the Bernoulli column-row estimator of Eq. 7:
//   grad_W = X^T * delta   — sampled over the minibatch dimension
//                            (k = grad_batch_samples; the paper's k = 10),
//   delta_prev = delta * W^T — sampled over the current layer's nodes
//                            (ratio = delta_sample_ratio; the paper's p≈0.1).
// Estimating the sampling probabilities requires a pass over the minibatch
// and W, which is the overhead that makes MC-approx^S (batch = 1) slower
// than exact training (§9.3).
//
// approx_forward additionally approximates the feedforward products — the
// configuration the paper reports as failing; kept as an ablation.
//
// The products are a policy for the shared dense step (DenseTrainer); the
// conv classifier's MC mode and McBackend's degraded rung run the same
// policy.

#pragma once

#include <istream>
#include <ostream>

#include "src/core/dense_trainer.h"
#include "src/metrics/split_timer.h"
#include "src/util/rng.h"

namespace sampnn {

/// InvalidArgument unless grad_batch_samples >= 1 and delta_sample_ratio is
/// in (0, 1]. Every builder of McProducts from user options calls this.
Status ValidateMcOptions(const McOptions& options);

/// \brief MC-approx's Adelman-sampled products. Counts the realized sample
/// totals and feeds the `approx.mc.*` histograms.
class McProducts : public DensePolicy {
 public:
  /// `timer`, when set, is charged the `sampling` sub-phase of the
  /// backward products.
  McProducts(const McOptions& options, uint64_t seed,
             SplitTimer* timer = nullptr);

  Status Forward(size_t k, const Matrix& a, const Matrix& w,
                 Matrix* z) override;
  Status WeightGrad(size_t k, const Matrix& a, const Matrix& delta,
                    Matrix* g) override;
  Status DeltaBack(size_t k, const Matrix& delta, const Matrix& w,
                   Matrix* out) override;

  /// Realized sample counts across all passes (batch-dim and node-dim).
  uint64_t batch_samples_total() const { return batch_samples_total_; }
  uint64_t delta_samples_total() const { return delta_samples_total_; }

  /// Checkpoints the estimator RNG and the two totals.
  void SaveState(std::ostream& out) const;
  Status LoadState(std::istream& in);

 private:
  /// Expected sample count for a product over inner dim `n`.
  size_t NodeSamples(size_t n) const;

  McOptions options_;
  SplitTimer* timer_;
  uint64_t batch_samples_total_ = 0;
  uint64_t delta_samples_total_ = 0;
  Rng rng_;
};

/// \brief The MC-approx trainer (MC^M for batch > 1, MC^S for batch = 1).
class McTrainer : public DenseTrainer {
 public:
  McTrainer(Mlp net, std::unique_ptr<Optimizer> optimizer,
            const McOptions& options, uint64_t seed);

  /// Reports cumulative realized sample counts (batch-dim and node-dim).
  void FillTelemetry(EpochTelemetry* record) const override;

 protected:
  DensePolicy& policy() override { return products_; }
  Status SaveExtraState(std::ostream& out) const override;
  Status LoadExtraState(std::istream& in) override;

 private:
  McProducts products_;
};

}  // namespace sampnn
