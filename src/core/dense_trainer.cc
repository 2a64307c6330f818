#include "src/core/dense_trainer.h"

#include <limits>

#include "src/nn/loss.h"
#include "src/resilience/fault_injector.h"
#include "src/telemetry/trace.h"

namespace sampnn {

DenseTrainer::DenseTrainer(const char* name, Mlp net,
                           std::unique_ptr<Optimizer> optimizer)
    : Trainer(std::move(net)), name_(name), optimizer_(std::move(optimizer)) {
  SAMPNN_CHECK(optimizer_ != nullptr);
}

StatusOr<double> DenseTrainer::Step(const Matrix& x,
                                    std::span<const int32_t> y) {
  DensePolicy& pass = policy();
  {
    PhaseScope scope(&timer_, kPhaseForward);
    SAMPNN_RETURN_NOT_OK(net_.Forward(x, pass, &ws_));
  }
  PhaseScope scope(&timer_, kPhaseBackward);
  SAMPNN_ASSIGN_OR_RETURN(
      const double loss,
      SoftmaxCrossEntropy::LossAndGrad(ws_.a.back(), y, &grad_logits_));
  SAMPNN_RETURN_NOT_OK(net_.Backward(x, grad_logits_, pass, &ws_, &grads_));
  if (FaultArmed(FaultKind::kGradNan)) {
    // Poison the output layer: a NaN hidden-layer weight can be masked by
    // ReLU (NaN > 0 is false), but nothing sits between logits and loss.
    grads_.back().weights(0, 0) = std::numeric_limits<float>::quiet_NaN();
  }
  if (track_grad_norm_) last_grad_norm2_ = GradSquaredNorm(grads_);
  optimizer_->Step(&net_, grads_);
  return loss;
}

Status DenseTrainer::SaveExtraState(std::ostream& out) const {
  return optimizer_->SaveState(out);
}

Status DenseTrainer::LoadExtraState(std::istream& in) {
  return optimizer_->LoadState(in, net_);
}

}  // namespace sampnn
