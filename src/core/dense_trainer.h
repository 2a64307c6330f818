// The dense step shared by STANDARD (§8.3, footnote 11: "Training the
// neural network without sampling"), Dropout, Adaptive-Dropout and
// MC-approx: the Mlp's batch forward and backward loops under the method's
// DensePolicy, then one tail — loss, the kGradNan fault, the gradient norm
// and the optimizer update. STANDARD is this trainer under the exact
// policy; the other three differ only in their policy and the state it
// checkpoints.

#pragma once

#include "src/core/trainer.h"

namespace sampnn {

/// \brief Minibatch/stochastic gradient descent through the dense loops.
class DenseTrainer : public Trainer {
 public:
  /// `name` must have static storage duration.
  DenseTrainer(const char* name, Mlp net, std::unique_ptr<Optimizer> optimizer);

  StatusOr<double> Step(const Matrix& x, std::span<const int32_t> y) final;
  const char* name() const override { return name_; }
  float learning_rate() const override { return optimizer_->learning_rate(); }
  void set_learning_rate(float lr) override {
    optimizer_->set_learning_rate(lr);
  }

 protected:
  /// The policy every Step runs under. Base: the exact pass.
  virtual DensePolicy& policy() { return exact_; }

  /// The optimizer's state. Subclasses write their policy's state first.
  Status SaveExtraState(std::ostream& out) const override;
  Status LoadExtraState(std::istream& in) override;

 private:
  const char* name_;
  std::unique_ptr<Optimizer> optimizer_;
  DensePolicy exact_;
  MlpWorkspace ws_;
  MlpGrads grads_;
  Matrix grad_logits_;
};

}  // namespace sampnn
