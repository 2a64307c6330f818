#include "src/core/mc_trainer.h"

#include <cmath>

#include <gtest/gtest.h>

#include "tests/core/test_util.h"

namespace sampnn {
namespace {

using testing_util::EasyDataset;
using testing_util::EasyNet;
using testing_util::TrainEpochs;

std::unique_ptr<Trainer> MakeMc(const MlpConfig& net, McOptions mc = {},
                                float lr = 1e-3f) {
  TrainerOptions options;
  options.kind = TrainerKind::kMc;
  options.mc = mc;
  options.learning_rate = lr;
  return std::move(MakeTrainer(net, options)).value();
}

// The strongest MC correctness check: with k >= batch and ratio = 1 every
// sampled product short-circuits to the exact gemm, so MC training must be
// bit-for-bit identical to standard training from the same seed.
TEST(McTrainerTest, ExactConfigurationMatchesStandardExactly) {
  Dataset data = EasyDataset(200);
  const MlpConfig net_config = EasyNet(data);

  McOptions exact;
  exact.grad_batch_samples = 1000;  // >= any batch
  exact.delta_sample_ratio = 1.0;
  exact.delta_min_samples = 100000;
  auto mc = MakeMc(net_config, exact);

  TrainerOptions std_options;
  auto standard = std::move(MakeTrainer(net_config, std_options)).value();

  TrainEpochs(mc.get(), data, 16, 2, nullptr, nullptr);
  TrainEpochs(standard.get(), data, 16, 2, nullptr, nullptr);
  for (size_t k = 0; k < mc->net().num_layers(); ++k) {
    EXPECT_TRUE(mc->net().layer(k).weights().AllClose(
        standard->net().layer(k).weights(), 1e-6f))
        << "layer " << k;
  }
}

TEST(McTrainerTest, LearnsAtPaperDefaults) {
  Dataset data = EasyDataset(400);
  McOptions mc;  // k = 10, ratio 0.1, min 64
  auto trainer = MakeMc(EasyNet(data, 2, 64), mc);
  const double acc = TrainEpochs(trainer.get(), data, 20, 8, nullptr, nullptr);
  EXPECT_GT(acc, 0.85);
}

TEST(McTrainerTest, LossDecreases) {
  Dataset data = EasyDataset(300);
  auto trainer = MakeMc(EasyNet(data, 2, 64));
  double first = 0.0, last = 0.0;
  TrainEpochs(trainer.get(), data, 20, 6, &first, &last);
  EXPECT_LT(last, first * 0.8);
}

TEST(McTrainerTest, DeltaMinSamplesFloorsTheSampler) {
  // With a tiny ratio but a large floor, training must still work: the
  // floor keeps the absolute sample count at paper-equivalent levels.
  Dataset data = EasyDataset(300);
  McOptions mc;
  mc.delta_sample_ratio = 0.01;
  mc.delta_min_samples = 48;
  auto trainer = MakeMc(EasyNet(data, 2, 64), mc);
  const double acc = TrainEpochs(trainer.get(), data, 20, 8, nullptr, nullptr);
  EXPECT_GT(acc, 0.7);
}

TEST(McTrainerTest, StochasticSettingRuns) {
  // MC^S: batch = 1 — probabilities from singleton columns; must still make
  // progress (the paper's point is that it is slow, not broken).
  Dataset data = EasyDataset(150);
  McOptions mc;
  auto trainer = MakeMc(EasyNet(data, 2, 32), mc, 1e-4f);
  double first = 0.0, last = 0.0;
  TrainEpochs(trainer.get(), data, 1, 4, &first, &last);
  EXPECT_LT(last, first);
}

TEST(McTrainerTest, ForwardIsExactByDefault) {
  // The default MC configuration performs the forward pass exactly, so two
  // nets with identical weights produce identical logits regardless of the
  // trainer's internal rng state.
  Dataset data = EasyDataset(50);
  auto trainer = MakeMc(EasyNet(data));
  Matrix x;
  std::vector<int32_t> y;
  std::vector<size_t> idx{0, 1, 2, 3};
  data.FillBatch(idx, &x, &y);
  MlpWorkspace ws;
  const Matrix& before = trainer->net().Forward(x, &ws);
  Matrix logits_copy = before;
  MlpWorkspace ws2;
  const Matrix& again = trainer->net().Forward(x, &ws2);
  EXPECT_TRUE(again.AllClose(logits_copy, 0.0f));
}

TEST(McTrainerTest, ApproxForwardAblationRunsAndDegrades) {
  Dataset data = EasyDataset(300);
  McOptions approx_fwd;
  approx_fwd.approx_forward = true;
  approx_fwd.forward_samples = 8;  // aggressive truncation
  auto ablation = MakeMc(EasyNet(data, 2, 64), approx_fwd);
  auto normal = MakeMc(EasyNet(data, 2, 64));
  const double acc_ablation =
      TrainEpochs(ablation.get(), data, 20, 4, nullptr, nullptr);
  const double acc_normal =
      TrainEpochs(normal.get(), data, 20, 4, nullptr, nullptr);
  // The paper reports feedforward approximation failing; at minimum it must
  // not beat the backward-only configuration.
  EXPECT_LE(acc_ablation, acc_normal + 0.05);
}

TEST(McTrainerTest, ChargesBothPhases) {
  Dataset data = EasyDataset(100);
  auto trainer = MakeMc(EasyNet(data));
  TrainEpochs(trainer.get(), data, 20, 1, nullptr, nullptr);
  EXPECT_GT(trainer->timer().Seconds(kPhaseForward), 0.0);
  EXPECT_GT(trainer->timer().Seconds(kPhaseBackward), 0.0);
}

}  // namespace
}  // namespace sampnn
