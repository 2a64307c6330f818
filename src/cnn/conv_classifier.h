// The paper's §8.4 convolutional experiment, as an API: a convolutional
// feature extractor trained exactly, with a two-layer fully-connected
// classifier on top whose training can be exact, MC-approximated (the
// sampled backward products of §6.2), or Dropout-masked. "We limit the
// approximation to the classifier and keep the convoluted operations
// exact. Also, for CIFAR-10, we use pure SGD" — hence plain SGD throughout.
//
// The classifier trains through the Mlp's dense loops under the mode's
// policy — the exact pass, MC-approx's products or Dropout's masks — and
// steps with SgdOptimizer (no momentum).

#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "src/cnn/feature_extractor.h"
#include "src/core/trainer.h"
#include "src/data/dataset.h"
#include "src/metrics/split_timer.h"
#include "src/nn/mlp.h"
#include "src/optim/optimizer.h"

namespace sampnn {

/// How the FC classifier's backward pass is computed.
enum class ClassifierMode {
  kExact,    ///< dense gemms (the Standard baseline)
  kMc,       ///< Adelman-sampled backward products (MC-approx)
  kDropout,  ///< fixed-probability node masks (Dropout)
};

/// Parses "exact" | "mc" | "dropout".
StatusOr<ClassifierMode> ClassifierModeFromString(const std::string& name);

/// Configuration of the full conv + classifier model.
struct ConvClassifierConfig {
  FeatureExtractorConfig features;
  size_t hidden = 256;     ///< width of the first FC layer
  size_t num_classes = 10;
  ClassifierMode mode = ClassifierMode::kExact;
  McOptions mc;            ///< used in kMc mode
  float dropout_keep = 0.05f;  ///< used in kDropout mode
  float learning_rate = 0.01f;
  bool train_features = true;  ///< false = frozen random features
  uint64_t seed = 42;
};

/// \brief Conv feature extractor + 2-layer FC classifier with selectable
/// classifier approximation.
class ConvClassifier {
 public:
  static StatusOr<ConvClassifier> Create(const ConvClassifierConfig& config);

  /// One SGD step over a minibatch; returns the batch loss. Feedforward and
  /// backprop wall time are charged to the timer(), with the conv portion
  /// additionally recorded under "conv_forward"/"conv_backward".
  /// InvalidArgument on a batch/label mismatch.
  StatusOr<double> Step(const Matrix& x, std::span<const int32_t> y);

  /// Argmax predictions (exact forward everywhere).
  std::vector<int32_t> Predict(const Matrix& x);

  /// Accuracy over a dataset, evaluated in chunks.
  double Evaluate(const Dataset& data, size_t eval_batch = 64);

  const ConvClassifierConfig& config() const { return config_; }
  size_t num_params() const;
  SplitTimer& timer() { return timer_; }

 private:
  ConvClassifier(const ConvClassifierConfig& config, FeatureExtractor features,
                 Mlp classifier);

  ConvClassifierConfig config_;
  FeatureExtractor features_;
  Mlp classifier_;  // 1 hidden FC layer + linear output = "two FC layers"
  // On the heap: the workspace's mask pointers point into it, and the
  // classifier is returned by value.
  std::unique_ptr<DensePolicy> policy_;
  SgdOptimizer sgd_;
  FeatureExtractor::Workspace fx_ws_;
  MlpWorkspace clf_ws_;
  MlpGrads grads_;
  Matrix grad_logits_;
  Matrix delta_features_;
  SplitTimer timer_;
};

}  // namespace sampnn
