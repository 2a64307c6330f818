#include "src/cnn/conv_classifier.h"

#include <cmath>

#include <gtest/gtest.h>

#include "src/data/batcher.h"
#include "src/data/synthetic.h"

namespace sampnn {
namespace {

Dataset SmallImageData(size_t n = 240, uint64_t seed = 11) {
  SyntheticSpec spec;
  spec.name = "conv-test";
  spec.image_height = 12;
  spec.image_width = 12;
  spec.channels = 1;
  spec.num_classes = 3;
  spec.num_examples = n;
  spec.prototypes_per_class = 1;
  spec.noise_stddev = 0.05f;
  spec.shared_structure = 0.1f;
  spec.max_shift = 1;
  return GenerateSynthetic(spec, seed);
}

ConvClassifierConfig SmallConfig(ClassifierMode mode) {
  ConvClassifierConfig cfg;
  cfg.features.input = {1, 12, 12};
  cfg.features.stem_channels = 4;
  cfg.features.num_blocks = 1;
  cfg.features.seed = 42;
  cfg.hidden = 32;
  cfg.num_classes = 3;
  cfg.mode = mode;
  cfg.learning_rate = 0.05f;
  cfg.seed = 42;
  return cfg;
}

double TrainEpochs(ConvClassifier* model, const Dataset& data, size_t epochs) {
  Batcher batcher(data, 16, 7);
  Matrix x;
  std::vector<int32_t> y;
  for (size_t e = 0; e < epochs; ++e) {
    while (batcher.Next(&x, &y)) {
      std::move(model->Step(x, y)).ValueOrDie("step");
    }
  }
  return model->Evaluate(data);
}

TEST(ClassifierModeTest, ParsesKnownModes) {
  EXPECT_EQ(std::move(ClassifierModeFromString("exact")).value(),
            ClassifierMode::kExact);
  EXPECT_EQ(std::move(ClassifierModeFromString("mc")).value(),
            ClassifierMode::kMc);
  EXPECT_EQ(std::move(ClassifierModeFromString("dropout")).value(),
            ClassifierMode::kDropout);
  EXPECT_TRUE(ClassifierModeFromString("alsh").status().IsInvalidArgument());
}

TEST(ConvClassifierTest, CreateValidates) {
  ConvClassifierConfig cfg = SmallConfig(ClassifierMode::kExact);
  cfg.num_classes = 0;
  EXPECT_TRUE(ConvClassifier::Create(cfg).status().IsInvalidArgument());
  cfg = SmallConfig(ClassifierMode::kExact);
  cfg.learning_rate = 0.0f;
  EXPECT_TRUE(ConvClassifier::Create(cfg).status().IsInvalidArgument());
  cfg = SmallConfig(ClassifierMode::kDropout);
  cfg.dropout_keep = 0.0f;
  EXPECT_TRUE(ConvClassifier::Create(cfg).status().IsInvalidArgument());
}

// MC mode validates its options up front, as MakeTrainer does, instead of
// failing on the first Step or ignoring them.
TEST(ConvClassifierTest, RejectsBadMcOptions) {
  ConvClassifierConfig cfg = SmallConfig(ClassifierMode::kMc);
  cfg.mc.grad_batch_samples = 0;
  EXPECT_TRUE(ConvClassifier::Create(cfg).status().IsInvalidArgument());
  for (const double ratio : {0.0, -0.5, 5.0}) {
    cfg = SmallConfig(ClassifierMode::kMc);
    cfg.mc.delta_sample_ratio = ratio;
    EXPECT_TRUE(ConvClassifier::Create(cfg).status().IsInvalidArgument())
        << ratio;
  }
  cfg = SmallConfig(ClassifierMode::kMc);
  cfg.mc.approx_forward = true;
  EXPECT_TRUE(ConvClassifier::Create(cfg).status().IsInvalidArgument());
  EXPECT_TRUE(ConvClassifier::Create(SmallConfig(ClassifierMode::kMc)).ok());
  // Other modes do not use the MC options.
  cfg = SmallConfig(ClassifierMode::kExact);
  cfg.mc.grad_batch_samples = 0;
  EXPECT_TRUE(ConvClassifier::Create(cfg).ok());
}

TEST(ConvClassifierTest, StepValidatesBatch) {
  auto model = std::move(ConvClassifier::Create(
                             SmallConfig(ClassifierMode::kExact)))
                   .value();
  Matrix x(2, 144);
  std::vector<int32_t> y{0};
  EXPECT_TRUE(model.Step(x, y).status().IsInvalidArgument());
}

TEST(ConvClassifierTest, ExactModeLearns) {
  Dataset data = SmallImageData();
  auto model = std::move(ConvClassifier::Create(
                             SmallConfig(ClassifierMode::kExact)))
                   .value();
  const double acc = TrainEpochs(&model, data, 6);
  EXPECT_GT(acc, 0.8);  // 3 classes, chance = 0.33
}

TEST(ConvClassifierTest, McModeLearnsWithExactConv) {
  Dataset data = SmallImageData();
  ConvClassifierConfig cfg = SmallConfig(ClassifierMode::kMc);
  cfg.mc.grad_batch_samples = 8;
  cfg.mc.delta_min_samples = 16;
  auto model = std::move(ConvClassifier::Create(cfg)).value();
  const double acc = TrainEpochs(&model, data, 6);
  EXPECT_GT(acc, 0.7);
}

TEST(ConvClassifierTest, FrozenFeaturesStillTrainClassifier) {
  Dataset data = SmallImageData();
  ConvClassifierConfig cfg = SmallConfig(ClassifierMode::kExact);
  cfg.train_features = false;
  auto model = std::move(ConvClassifier::Create(cfg)).value();
  const double acc = TrainEpochs(&model, data, 6);
  EXPECT_GT(acc, 0.6);  // random conv features + trained FC head
}

TEST(ConvClassifierTest, DropoutModeRunsAndPredictsValidClasses) {
  Dataset data = SmallImageData(120);
  ConvClassifierConfig cfg = SmallConfig(ClassifierMode::kDropout);
  cfg.dropout_keep = 0.5f;
  auto model = std::move(ConvClassifier::Create(cfg)).value();
  TrainEpochs(&model, data, 2);
  const auto preds = model.Predict(data.features());
  for (int32_t p : preds) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 3);
  }
}

TEST(ConvClassifierTest, TimerSplitsConvAndClassifierPhases) {
  Dataset data = SmallImageData(60);
  auto model = std::move(ConvClassifier::Create(
                             SmallConfig(ClassifierMode::kExact)))
                   .value();
  TrainEpochs(&model, data, 1);
  EXPECT_GT(model.timer().Seconds("conv_forward"), 0.0);
  EXPECT_GT(model.timer().Seconds("conv_backward"), 0.0);
  EXPECT_GT(model.timer().Seconds(kPhaseForward), 0.0);
  EXPECT_GT(model.timer().Seconds(kPhaseBackward), 0.0);
}

TEST(ConvClassifierTest, NumParamsIncludesBothParts) {
  auto model = std::move(ConvClassifier::Create(
                             SmallConfig(ClassifierMode::kExact)))
                   .value();
  EXPECT_GT(model.num_params(), 0u);
}

}  // namespace
}  // namespace sampnn
