#include "src/core/dense_trainer.h"

#include <cmath>

#include <gtest/gtest.h>

#include "tests/core/test_util.h"

namespace sampnn {
namespace {

using testing_util::EasyDataset;
using testing_util::EasyNet;
using testing_util::TrainEpochs;

std::unique_ptr<Trainer> MakeStandard(const MlpConfig& net, float lr = 1e-3f,
                                      const std::string& opt = "adam") {
  TrainerOptions options;
  options.kind = TrainerKind::kStandard;
  options.optimizer = opt;
  options.learning_rate = lr;
  return std::move(MakeTrainer(net, options)).value();
}

TEST(StandardTrainerTest, LossDecreasesOverEpochs) {
  Dataset data = EasyDataset();
  auto trainer = MakeStandard(EasyNet(data));
  double first = 0.0, last = 0.0;
  TrainEpochs(trainer.get(), data, 16, 5, &first, &last);
  EXPECT_LT(last, first * 0.5);
}

TEST(StandardTrainerTest, LearnsEasyProblem) {
  Dataset data = EasyDataset();
  auto trainer = MakeStandard(EasyNet(data));
  const double acc = TrainEpochs(trainer.get(), data, 16, 6, nullptr, nullptr);
  EXPECT_GT(acc, 0.9);
}

TEST(StandardTrainerTest, WorksInStochasticSetting) {
  Dataset data = EasyDataset(200);
  auto trainer = MakeStandard(EasyNet(data));
  const double acc = TrainEpochs(trainer.get(), data, 1, 3, nullptr, nullptr);
  EXPECT_GT(acc, 0.8);
}

TEST(StandardTrainerTest, ChargesForwardAndBackwardPhases) {
  Dataset data = EasyDataset(100);
  // Backprop (incl. the update) costs more than the forward pass — the
  // §10.1 observation. The intervals here are a few milliseconds, so a
  // single preemption on a loaded machine (or under sanitizers) can flip
  // the comparison; retry with a fresh trainer before declaring failure.
  double forward = 0.0;
  double backward = 0.0;
  for (int attempt = 0; attempt < 3; ++attempt) {
    auto trainer = MakeStandard(EasyNet(data));
    TrainEpochs(trainer.get(), data, 10, 1, nullptr, nullptr);
    forward = trainer->timer().Seconds(kPhaseForward);
    backward = trainer->timer().Seconds(kPhaseBackward);
    ASSERT_GT(forward, 0.0);
    ASSERT_GT(backward, 0.0);
    if (backward > forward) break;
  }
  EXPECT_GT(backward, forward);
}

TEST(StandardTrainerTest, StepReturnsBatchLoss) {
  Dataset data = EasyDataset(50);
  auto trainer = MakeStandard(EasyNet(data));
  Matrix x;
  std::vector<int32_t> y;
  std::vector<size_t> idx{0, 1, 2};
  data.FillBatch(idx, &x, &y);
  auto loss = trainer->Step(x, y);
  ASSERT_TRUE(loss.ok());
  // Untrained multi-class model: loss near log(num_classes).
  EXPECT_NEAR(loss.value(), std::log(4.0), 1.0);
}

TEST(StandardTrainerTest, DeterministicGivenSeeds) {
  Dataset data = EasyDataset(100);
  auto t1 = MakeStandard(EasyNet(data));
  auto t2 = MakeStandard(EasyNet(data));
  TrainEpochs(t1.get(), data, 10, 2, nullptr, nullptr);
  TrainEpochs(t2.get(), data, 10, 2, nullptr, nullptr);
  for (size_t k = 0; k < t1->net().num_layers(); ++k) {
    EXPECT_TRUE(t1->net().layer(k).weights().AllClose(
        t2->net().layer(k).weights(), 0.0f));
  }
}

}  // namespace
}  // namespace sampnn
