#include "src/cnn/conv_classifier.h"

#include <algorithm>
#include <numeric>

#include "src/core/dropout_trainer.h"
#include "src/core/mc_trainer.h"
#include "src/nn/loss.h"
#include "src/telemetry/trace.h"
#include "src/tensor/kernels.h"

namespace sampnn {

StatusOr<ClassifierMode> ClassifierModeFromString(const std::string& name) {
  if (name == "exact") return ClassifierMode::kExact;
  if (name == "mc") return ClassifierMode::kMc;
  if (name == "dropout") return ClassifierMode::kDropout;
  return Status::InvalidArgument("unknown classifier mode: " + name);
}

StatusOr<ConvClassifier> ConvClassifier::Create(
    const ConvClassifierConfig& config) {
  if (config.num_classes == 0 || config.hidden == 0) {
    return Status::InvalidArgument("ConvClassifier: zero-sized classifier");
  }
  if (config.learning_rate <= 0.0f) {
    return Status::InvalidArgument("ConvClassifier: learning rate must be > 0");
  }
  if (config.mode == ClassifierMode::kDropout &&
      (config.dropout_keep <= 0.0f || config.dropout_keep > 1.0f)) {
    return Status::InvalidArgument("ConvClassifier: dropout_keep in (0, 1]");
  }
  if (config.mode == ClassifierMode::kMc) {
    SAMPNN_RETURN_NOT_OK(ValidateMcOptions(config.mc));
    // The conv experiment keeps the feedforward exact (§8.4).
    if (config.mc.approx_forward) {
      return Status::InvalidArgument(
          "ConvClassifier: mc approx_forward is not supported");
    }
  }
  SAMPNN_ASSIGN_OR_RETURN(FeatureExtractor features,
                          FeatureExtractor::Create(config.features));
  MlpConfig clf_cfg = MlpConfig::Uniform(features.feature_dim(),
                                         config.num_classes, /*depth=*/1,
                                         config.hidden);
  clf_cfg.seed = config.seed ^ 0xC1A551F1ull;
  SAMPNN_ASSIGN_OR_RETURN(Mlp classifier, Mlp::Create(clf_cfg));
  return ConvClassifier(config, std::move(features), std::move(classifier));
}

namespace {

// The mode's policy. Only the backward products are approximated in MC
// mode: Create rejects approx_forward.
std::unique_ptr<DensePolicy> MakePolicy(const ConvClassifierConfig& config) {
  const uint64_t seed = config.seed ^ 0xC0371ull;
  switch (config.mode) {
    case ClassifierMode::kExact:
      break;
    case ClassifierMode::kMc:
      return std::make_unique<McProducts>(config.mc, seed);
    case ClassifierMode::kDropout:
      return std::make_unique<DropoutMasks>(/*num_hidden=*/1,
                                            config.dropout_keep, seed);
  }
  return std::make_unique<DensePolicy>();
}

}  // namespace

ConvClassifier::ConvClassifier(const ConvClassifierConfig& config,
                               FeatureExtractor features, Mlp classifier)
    : config_(config),
      features_(std::move(features)),
      classifier_(std::move(classifier)),
      policy_(MakePolicy(config)),
      sgd_(config.learning_rate) {}

size_t ConvClassifier::num_params() const {
  return features_.num_params() + classifier_.num_params();
}

StatusOr<double> ConvClassifier::Step(const Matrix& x,
                                      std::span<const int32_t> y) {
  if (x.rows() != y.size()) {
    return Status::InvalidArgument("ConvClassifier::Step: batch mismatch");
  }
  // --- Forward: exact conv, then the classifier under the mode's policy. ---
  const Matrix* feats = nullptr;
  {
    PhaseScope scope(&timer_, "conv_forward");
    feats = &features_.Forward(x, &fx_ws_);
  }
  {
    PhaseScope scope(&timer_, kPhaseForward);
    SAMPNN_RETURN_NOT_OK(classifier_.Forward(*feats, *policy_, &clf_ws_));
  }
  // --- Backward: classifier per mode, conv exact. ---
  PhaseScope scope(&timer_, kPhaseBackward);
  SAMPNN_ASSIGN_OR_RETURN(
      const double loss,
      SoftmaxCrossEntropy::LossAndGrad(clf_ws_.a.back(), y, &grad_logits_));
  SAMPNN_RETURN_NOT_OK(classifier_.Backward(*feats, grad_logits_, *policy_,
                                            &clf_ws_, &grads_));
  if (config_.train_features) {
    // Exact delta at the features, through the pre-update weights (the
    // conv path stays exact even in MC mode, per §8.4).
    const Layer& fc1 = classifier_.layer(0);
    if (delta_features_.rows() != x.rows() ||
        delta_features_.cols() != fc1.in_dim()) {
      delta_features_ = Matrix(x.rows(), fc1.in_dim());
    }
    GemmTransB(clf_ws_.delta, fc1.weights(), &delta_features_);
  }
  sgd_.Step(&classifier_, grads_);
  if (config_.train_features) {
    PhaseScope conv_scope(&timer_, "conv_backward");
    features_.BackwardAndUpdate(x, &fx_ws_, delta_features_,
                                config_.learning_rate);
  }
  return loss;
}

std::vector<int32_t> ConvClassifier::Predict(const Matrix& x) {
  const Matrix& feats = features_.Forward(x, &fx_ws_);
  const Matrix& logits = classifier_.Forward(feats, &clf_ws_);
  return SoftmaxCrossEntropy::Predict(logits);
}

double ConvClassifier::Evaluate(const Dataset& data, size_t eval_batch) {
  if (data.size() == 0) return 0.0;
  size_t correct = 0;
  Matrix x;
  std::vector<int32_t> y;
  std::vector<size_t> idx;
  for (size_t begin = 0; begin < data.size(); begin += eval_batch) {
    const size_t end = std::min(data.size(), begin + eval_batch);
    idx.resize(end - begin);
    std::iota(idx.begin(), idx.end(), begin);
    data.FillBatch(idx, &x, &y);
    const auto preds = Predict(x);
    for (size_t i = 0; i < preds.size(); ++i) {
      if (preds[i] == y[i]) ++correct;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(data.size());
}

}  // namespace sampnn
