#include "src/core/trainer.h"

#include <gtest/gtest.h>

namespace sampnn {
namespace {

MlpConfig SmallNet() {
  MlpConfig cfg = MlpConfig::Uniform(8, 3, 2, 12);
  cfg.seed = 42;
  return cfg;
}

TEST(TrainerKindTest, ParseRoundTrips) {
  for (TrainerKind kind :
       {TrainerKind::kStandard, TrainerKind::kDropout,
        TrainerKind::kAdaptiveDropout, TrainerKind::kAlsh, TrainerKind::kMc}) {
    auto parsed = TrainerKindFromString(TrainerKindToString(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), kind);
  }
  EXPECT_TRUE(TrainerKindFromString("sgd").status().IsInvalidArgument());
}

TEST(MakeTrainerTest, BuildsEveryKind) {
  for (TrainerKind kind :
       {TrainerKind::kStandard, TrainerKind::kDropout,
        TrainerKind::kAdaptiveDropout, TrainerKind::kAlsh, TrainerKind::kMc}) {
    TrainerOptions options;
    options.kind = kind;
    auto trainer = MakeTrainer(SmallNet(), options);
    ASSERT_TRUE(trainer.ok()) << TrainerKindToString(kind);
    EXPECT_STREQ((*trainer)->name(), TrainerKindToString(kind));
    EXPECT_EQ((*trainer)->net().input_dim(), 8u);
  }
}

TEST(MakeTrainerTest, RejectsBadNetwork) {
  MlpConfig bad = SmallNet();
  bad.input_dim = 0;
  TrainerOptions options;
  EXPECT_TRUE(MakeTrainer(bad, options).status().IsInvalidArgument());
}

TEST(MakeTrainerTest, RejectsBadLearningRate) {
  TrainerOptions options;
  options.learning_rate = 0.0f;
  EXPECT_FALSE(MakeTrainer(SmallNet(), options).ok());
  options.kind = TrainerKind::kAlsh;
  EXPECT_FALSE(MakeTrainer(SmallNet(), options).ok());
}

TEST(MakeTrainerTest, RejectsBadDropoutProb) {
  TrainerOptions options;
  options.kind = TrainerKind::kDropout;
  options.dropout.keep_prob = 0.0f;
  EXPECT_TRUE(MakeTrainer(SmallNet(), options).status().IsInvalidArgument());
  options.dropout.keep_prob = 1.5f;
  EXPECT_TRUE(MakeTrainer(SmallNet(), options).status().IsInvalidArgument());
}

TEST(MakeTrainerTest, RejectsBadAdaptiveTargetProb) {
  TrainerOptions options;
  options.kind = TrainerKind::kAdaptiveDropout;
  options.adaptive_dropout.target_prob = 1.0f;
  EXPECT_TRUE(MakeTrainer(SmallNet(), options).status().IsInvalidArgument());
  options.adaptive_dropout.target_prob = 0.05f;
  options.adaptive_dropout.min_prob = 0.0f;
  EXPECT_TRUE(MakeTrainer(SmallNet(), options).status().IsInvalidArgument());
}

TEST(MakeTrainerTest, RejectsBadMcOptions) {
  TrainerOptions options;
  options.kind = TrainerKind::kMc;
  options.mc.grad_batch_samples = 0;
  EXPECT_TRUE(MakeTrainer(SmallNet(), options).status().IsInvalidArgument());
  options = TrainerOptions();
  options.kind = TrainerKind::kMc;
  options.mc.delta_sample_ratio = 0.0;
  EXPECT_TRUE(MakeTrainer(SmallNet(), options).status().IsInvalidArgument());
  options.mc.delta_sample_ratio = 1.5;
  EXPECT_TRUE(MakeTrainer(SmallNet(), options).status().IsInvalidArgument());
}

TEST(MakeTrainerTest, RejectsBadAlshOptions) {
  TrainerOptions options;
  options.kind = TrainerKind::kAlsh;
  options.alsh.early_rebuild_every = 0;
  EXPECT_TRUE(MakeTrainer(SmallNet(), options).status().IsInvalidArgument());
  options = TrainerOptions();
  options.kind = TrainerKind::kAlsh;
  options.alsh.optimizer = "lbfgs";
  EXPECT_TRUE(MakeTrainer(SmallNet(), options).status().IsInvalidArgument());
}

TEST(MakeTrainerTest, RejectsUnknownOptimizer) {
  TrainerOptions options;
  options.optimizer = "newton";
  EXPECT_TRUE(MakeTrainer(SmallNet(), options).status().IsInvalidArgument());
}

// A wrong-size label span or a wrong-width batch is an InvalidArgument from
// every method, never an abort.
TEST(TrainerStepTest, ValidatesBatchShapes) {
  for (TrainerKind kind :
       {TrainerKind::kStandard, TrainerKind::kDropout,
        TrainerKind::kAdaptiveDropout, TrainerKind::kAlsh, TrainerKind::kMc}) {
    SCOPED_TRACE(TrainerKindToString(kind));
    TrainerOptions options;
    options.kind = kind;
    auto trainer = std::move(MakeTrainer(SmallNet(), options)).value();
    Matrix x(2, 8);
    std::vector<int32_t> wrong_labels{0};  // batch mismatch
    EXPECT_TRUE(trainer->Step(x, wrong_labels).status().IsInvalidArgument());
    Matrix wrong_dim(1, 5);
    std::vector<int32_t> labels{0};
    EXPECT_TRUE(trainer->Step(wrong_dim, labels).status().IsInvalidArgument());
  }
}

}  // namespace
}  // namespace sampnn
