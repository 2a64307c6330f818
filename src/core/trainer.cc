#include "src/core/trainer.h"

#include "src/core/alsh_trainer.h"
#include "src/core/dropout_trainer.h"
#include "src/core/mc_trainer.h"
#include "src/nn/loss.h"
#include "src/nn/serialize.h"

namespace sampnn {

Status Trainer::PredictCancellable(const Matrix& x, const CancelContext& ctx,
                                   std::vector<int32_t>* preds) {
  SAMPNN_CHECK(preds != nullptr);
  MlpWorkspace ws;
  SAMPNN_RETURN_NOT_OK(net_.ForwardCancellable(x, ctx, &ws));
  *preds = SoftmaxCrossEntropy::Predict(ws.a.back());
  return Status::OK();
}

Status Trainer::SaveState(std::ostream& out) const {
  SAMPNN_RETURN_NOT_OK(SaveMlp(net_, out));
  return SaveExtraState(out);
}

Status Trainer::LoadState(std::istream& in) {
  SAMPNN_RETURN_NOT_OK(LoadMlpParamsInto(in, &net_));
  return LoadExtraState(in);
}

double GradSquaredNorm(const MlpGrads& grads) {
  double sum = 0.0;
  for (const LayerGrads& g : grads) {
    const float* wd = g.weights.data();
    for (size_t i = 0; i < g.weights.size(); ++i) {
      sum += static_cast<double>(wd[i]) * wd[i];
    }
    for (float b : g.bias) sum += static_cast<double>(b) * b;
  }
  return sum;
}

StatusOr<TrainerKind> TrainerKindFromString(const std::string& name) {
  if (name == "standard") return TrainerKind::kStandard;
  if (name == "dropout") return TrainerKind::kDropout;
  if (name == "adaptive-dropout") return TrainerKind::kAdaptiveDropout;
  if (name == "alsh") return TrainerKind::kAlsh;
  if (name == "mc") return TrainerKind::kMc;
  return Status::InvalidArgument("unknown trainer: " + name);
}

const char* TrainerKindToString(TrainerKind kind) {
  switch (kind) {
    case TrainerKind::kStandard:
      return "standard";
    case TrainerKind::kDropout:
      return "dropout";
    case TrainerKind::kAdaptiveDropout:
      return "adaptive-dropout";
    case TrainerKind::kAlsh:
      return "alsh";
    case TrainerKind::kMc:
      return "mc";
  }
  return "unknown";
}

StatusOr<std::unique_ptr<Trainer>> MakeTrainer(const MlpConfig& net_config,
                                               const TrainerOptions& options) {
  SAMPNN_ASSIGN_OR_RETURN(Mlp net, Mlp::Create(net_config));
  if (options.kind == TrainerKind::kAlsh) {
    SAMPNN_ASSIGN_OR_RETURN(
        auto trainer,
        AlshTrainer::Create(std::move(net), options.alsh,
                            options.learning_rate, options.seed ^ 0xA15Au));
    return std::unique_ptr<Trainer>(std::move(trainer));
  }
  SAMPNN_ASSIGN_OR_RETURN(
      auto optimizer, MakeOptimizer(options.optimizer, options.learning_rate));
  const char* name = TrainerKindToString(options.kind);
  const size_t hidden = net.num_hidden_layers();
  switch (options.kind) {
    case TrainerKind::kStandard:
      return std::unique_ptr<Trainer>(
          new DenseTrainer(name, std::move(net), std::move(optimizer)));
    case TrainerKind::kDropout: {
      const float keep = options.dropout.keep_prob;
      if (keep <= 0.0f || keep > 1.0f) {
        return Status::InvalidArgument("dropout keep_prob must be in (0, 1]");
      }
      return std::unique_ptr<Trainer>(new MaskedTrainer(
          name, std::move(net), std::move(optimizer),
          std::make_unique<DropoutMasks>(hidden, keep,
                                         options.seed ^ 0xD70u)));
    }
    case TrainerKind::kAdaptiveDropout: {
      const auto& ad = options.adaptive_dropout;
      if (ad.target_prob <= 0.0f || ad.target_prob >= 1.0f) {
        return Status::InvalidArgument(
            "adaptive-dropout target_prob must be in (0, 1)");
      }
      if (ad.min_prob <= 0.0f || ad.min_prob > 1.0f) {
        return Status::InvalidArgument(
            "adaptive-dropout min_prob must be in (0, 1]");
      }
      return std::unique_ptr<Trainer>(new MaskedTrainer(
          name, std::move(net), std::move(optimizer),
          std::make_unique<AdaptiveDropoutMasks>(hidden, ad,
                                                 options.seed ^ 0xADAu)));
    }
    case TrainerKind::kMc: {
      SAMPNN_RETURN_NOT_OK(ValidateMcOptions(options.mc));
      return std::unique_ptr<Trainer>(
          new McTrainer(std::move(net), std::move(optimizer), options.mc,
                        options.seed ^ 0x3CAu));
    }
    case TrainerKind::kAlsh:
      break;
  }
  return Status::Internal("unreachable trainer kind");
}

}  // namespace sampnn
