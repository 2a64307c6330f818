#include "src/core/alsh_trainer.h"

#include <cmath>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "tests/core/test_util.h"

namespace sampnn {
namespace {

using testing_util::DeterministicKernelsScope;
using testing_util::EasyDataset;
using testing_util::EasyNet;
using testing_util::Fnv1a;
using testing_util::HexFloat;
using testing_util::TrainEpochs;

std::unique_ptr<AlshTrainer> MakeAlsh(const MlpConfig& net_config,
                                      AlshOptions options = {},
                                      float lr = 1e-3f) {
  Mlp net = std::move(Mlp::Create(net_config)).value();
  return std::move(AlshTrainer::Create(std::move(net), options, lr, 42))
      .value();
}

TEST(SparseOptStateTest, CreateValidatesMode) {
  Rng rng(1);
  Layer layer(4, 3, Activation::kRelu, Initializer::kHe, rng);
  EXPECT_TRUE(SparseOptState::Create(layer, "sgd").ok());
  EXPECT_TRUE(SparseOptState::Create(layer, "adagrad").ok());
  EXPECT_TRUE(SparseOptState::Create(layer, "adam").ok());
  EXPECT_TRUE(SparseOptState::Create(layer, "rprop").status().IsInvalidArgument());
}

TEST(SparseOptStateTest, SgdUpdateMatchesManualMath) {
  Rng rng(2);
  Layer layer(3, 2, Activation::kRelu, Initializer::kHe, rng);
  Matrix w_before = layer.weights();
  auto state = std::move(SparseOptState::Create(layer, "sgd")).value();
  std::vector<float> a_prev{1.0f, 2.0f, 0.0f};
  std::vector<uint32_t> support{0, 1};
  const std::vector<uint32_t> cols{1};
  const std::vector<float> delta{0.0f, 0.5f};
  std::vector<float> scratch;
  state.Update(&layer.weights(), layer.bias(), a_prev, support, cols, delta,
               0.1f, &scratch);
  EXPECT_NEAR(layer.weights()(0, 1), w_before(0, 1) - 0.1f * 0.5f * 1.0f, 1e-6f);
  EXPECT_NEAR(layer.weights()(1, 1), w_before(1, 1) - 0.1f * 0.5f * 2.0f, 1e-6f);
  EXPECT_EQ(layer.weights()(2, 1), w_before(2, 1));  // outside support
  EXPECT_EQ(layer.weights()(0, 0), w_before(0, 0));  // other column untouched
  EXPECT_NEAR(layer.bias()[1], -0.05f, 1e-6f);
}

TEST(SparseOptStateTest, AdagradShrinksSteps) {
  Rng rng(3);
  Layer layer(2, 1, Activation::kRelu, Initializer::kHe, rng);
  auto state = std::move(SparseOptState::Create(layer, "adagrad")).value();
  std::vector<float> a_prev{1.0f, 0.0f};
  std::vector<uint32_t> support{0};
  const std::vector<uint32_t> cols{0};
  const std::vector<float> delta{1.0f};
  std::vector<float> scratch;
  const float w0 = layer.weights()(0, 0);
  state.Update(&layer.weights(), layer.bias(), a_prev, support, cols, delta,
               0.1f, &scratch);
  const float step1 = w0 - layer.weights()(0, 0);
  const float w1 = layer.weights()(0, 0);
  state.Update(&layer.weights(), layer.bias(), a_prev, support, cols, delta,
               0.1f, &scratch);
  const float step2 = w1 - layer.weights()(0, 0);
  EXPECT_GT(step1, step2);
}

TEST(SparseOptStateTest, AdamAdvancesColumnStepLazily) {
  Rng rng(4);
  Layer layer(2, 3, Activation::kRelu, Initializer::kHe, rng);
  auto state = std::move(SparseOptState::Create(layer, "adam")).value();
  std::vector<float> a_prev{1.0f, 1.0f};
  std::vector<uint32_t> support{0, 1};
  const std::vector<uint32_t> cols{1};
  const std::vector<float> delta{0.0f, 1.0f, 0.0f};
  std::vector<float> scratch;
  state.Update(&layer.weights(), layer.bias(), a_prev, support, cols, delta,
               0.01f, &scratch);
  state.Update(&layer.weights(), layer.bias(), a_prev, support, cols, delta,
               0.01f, &scratch);
  EXPECT_EQ(state.col_step[1], 2u);
  EXPECT_EQ(state.col_step[0], 0u);  // never touched
  EXPECT_EQ(state.col_step[2], 0u);
}

TEST(AlshTrainerTest, CreateValidates) {
  Mlp net = std::move(Mlp::Create(EasyNet(EasyDataset(10)))).value();
  AlshOptions options;
  EXPECT_TRUE(
      AlshTrainer::Create(net.Clone(), options, 0.0f, 1).status().IsInvalidArgument());
  options.late_rebuild_every = 0;
  EXPECT_TRUE(AlshTrainer::Create(net.Clone(), options, 0.1f, 1)
                  .status()
                  .IsInvalidArgument());
}

TEST(AlshTrainerTest, FullActiveSetMatchesExactTrainingQuality) {
  // Forcing every node active removes the approximation; the sparse
  // machinery must then learn the easy problem as well as dense training.
  Dataset data = EasyDataset(300);
  AlshOptions options;
  options.min_active = 1000;  // > width: everything active
  auto trainer = MakeAlsh(EasyNet(data, 2, 24), options);
  const double acc = TrainEpochs(trainer.get(), data, 1, 3, nullptr, nullptr);
  EXPECT_GT(acc, 0.9);
  EXPECT_DOUBLE_EQ(trainer->AverageActiveFraction(), 1.0);
}

TEST(AlshTrainerTest, SparseTrainingLearnsAboveChance) {
  Dataset data = EasyDataset(400);
  auto trainer = MakeAlsh(EasyNet(data, 2, 48));
  const double acc = TrainEpochs(trainer.get(), data, 1, 6, nullptr, nullptr);
  EXPECT_GT(acc, 0.5);  // 4 classes -> chance is 0.25
}

TEST(AlshTrainerTest, ActiveFractionIsSparse) {
  Dataset data = EasyDataset(200);
  AlshOptions options;
  options.min_active = 4;
  auto trainer = MakeAlsh(EasyNet(data, 2, 64), options);
  TrainEpochs(trainer.get(), data, 1, 1, nullptr, nullptr);
  const double frac = trainer->AverageActiveFraction();
  EXPECT_GT(frac, 0.0);
  EXPECT_LT(frac, 0.9);  // genuinely skipping nodes
}

TEST(AlshTrainerTest, RebuildScheduleFollowsPaperPhases) {
  Dataset data = EasyDataset(250);
  AlshOptions options;
  options.early_rebuild_every = 50;
  options.early_phase_samples = 10000;
  auto trainer = MakeAlsh(EasyNet(data), options);
  TrainEpochs(trainer.get(), data, 1, 1, nullptr, nullptr);
  // 250 samples / rebuild every 50 = 5 rebuild points x 2 hidden layers.
  EXPECT_EQ(trainer->TotalRebuilds(), 10u);
}

TEST(AlshTrainerTest, LatePhaseRebuildsLessOften) {
  Dataset data = EasyDataset(300);
  AlshOptions frequent;
  frequent.early_rebuild_every = 10;
  AlshOptions lazy;
  lazy.early_rebuild_every = 10;
  lazy.early_phase_samples = 100;  // switch to late period quickly
  lazy.late_rebuild_every = 100;
  auto t_frequent = MakeAlsh(EasyNet(data), frequent);
  auto t_lazy = MakeAlsh(EasyNet(data), lazy);
  TrainEpochs(t_frequent.get(), data, 1, 1, nullptr, nullptr);
  TrainEpochs(t_lazy.get(), data, 1, 1, nullptr, nullptr);
  EXPECT_GT(t_frequent->TotalRebuilds(), t_lazy->TotalRebuilds());
}

TEST(AlshTrainerTest, RebuildTimeIsCharged) {
  Dataset data = EasyDataset(200);
  AlshOptions options;
  options.early_rebuild_every = 20;
  auto trainer = MakeAlsh(EasyNet(data), options);
  TrainEpochs(trainer.get(), data, 1, 1, nullptr, nullptr);
  EXPECT_GT(trainer->timer().Seconds(kPhaseHashRebuild), 0.0);
}

TEST(AlshTrainerTest, PredictSparseReturnsValidClasses) {
  Dataset data = EasyDataset(100);
  auto trainer = MakeAlsh(EasyNet(data));
  TrainEpochs(trainer.get(), data, 1, 1, nullptr, nullptr);
  const auto preds = trainer->PredictSparse(data.features());
  ASSERT_EQ(preds.size(), data.size());
  for (int32_t p : preds) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, static_cast<int32_t>(data.num_classes()));
  }
}

TEST(AlshTrainerTest, ParallelModeLearnsComparably) {
  Dataset data = EasyDataset(400);
  AlshOptions serial_options;
  AlshOptions parallel_options;
  parallel_options.threads = 4;
  auto serial = MakeAlsh(EasyNet(data, 2, 48), serial_options);
  auto parallel = MakeAlsh(EasyNet(data, 2, 48), parallel_options);
  const double acc_serial =
      TrainEpochs(serial.get(), data, 32, 5, nullptr, nullptr);
  const double acc_parallel =
      TrainEpochs(parallel.get(), data, 32, 5, nullptr, nullptr);
  // HOGWILD races add noise but must not destroy learning ([50]'s claim).
  EXPECT_GT(acc_parallel, acc_serial - 0.2);
  EXPECT_GT(parallel->timer().Seconds("parallel"), 0.0);
}

TEST(AlshTrainerTest, OracleSelectionLearnsAtLeastAsWellAsLsh) {
  // Lemma 7.1's "detected exactly" idealization: exact top-k MIPS selection
  // should match or beat hash-based selection at the same budget.
  Dataset data = EasyDataset(300);
  AlshOptions oracle;
  oracle.selection = AlshSelection::kOracle;
  oracle.oracle_active = 16;
  AlshOptions lsh;
  lsh.min_active = 16;
  auto t_oracle = MakeAlsh(EasyNet(data, 2, 48), oracle);
  auto t_lsh = MakeAlsh(EasyNet(data, 2, 48), lsh);
  const double acc_oracle =
      TrainEpochs(t_oracle.get(), data, 1, 4, nullptr, nullptr);
  const double acc_lsh = TrainEpochs(t_lsh.get(), data, 1, 4, nullptr, nullptr);
  EXPECT_GE(acc_oracle, acc_lsh - 0.1);
  EXPECT_GT(acc_oracle, 0.5);
}

TEST(AlshTrainerTest, OracleSelectionHonorsBudgetExactly) {
  Dataset data = EasyDataset(60);
  AlshOptions options;
  options.selection = AlshSelection::kOracle;
  options.oracle_active = 12;
  auto trainer = MakeAlsh(EasyNet(data, 2, 48), options);
  TrainEpochs(trainer.get(), data, 1, 1, nullptr, nullptr);
  EXPECT_NEAR(trainer->AverageActiveFraction(), 12.0 / 48.0, 1e-9);
}

TEST(AlshTrainerTest, WtaFamilyTrains) {
  Dataset data = EasyDataset(300);
  AlshOptions options;
  options.index.family = LshFamily::kWta;
  options.index.bits = 9;  // 3 sub-hashes of window 8
  auto trainer = MakeAlsh(EasyNet(data, 2, 48), options);
  const double acc = TrainEpochs(trainer.get(), data, 1, 5, nullptr, nullptr);
  EXPECT_GT(acc, 0.4);
}

// --- Golden trajectories ----------------------------------------------------
//
// The ALSH kernels (row-major sparse forward and update, fused SRP hash)
// reproduce the column-at-a-time loops they replaced bit for bit. The
// constants were recorded with the column-at-a-time implementation;
// changing any per-output accumulation order, contracting a multiply-add
// into an FMA, or reordering bucket inserts moves them.

struct GoldenScenario {
  const char* name;
  AlshOptions options;
  float lr = 1e-3f;
  bool zero_rows = false;  // zero every third input row (empty support)
  const char* last_loss = "";
  uint64_t state_hash = 0;
};

struct GoldenRun {
  std::vector<std::string> losses;  // per-step loss as a hex float
  uint64_t state_hash = 0;          // FNV-1a of the Trainer::SaveState bytes
};

// Runs with the deterministic dense kernels: the output layer's VecMat
// otherwise ends its AVX2 pass with a scalar tail the compiler contracts
// into an FMA at -O2 and above only, which would tie the constants to the
// build type. The ALSH kernels under test run the same either way.
//
// 40 batches of 20 (one epoch of 800 samples): eight hash-table rebuilds at
// the default every-100-samples schedule. SaveState covers the weights,
// biases, optimizer moments and step counts, bucket contents, transform
// scales, active-set counters and every RNG stream.
GoldenRun RunGolden(const GoldenScenario& s) {
  const DeterministicKernelsScope deterministic;
  constexpr size_t kSteps = 40, kBatch = 20;
  Dataset data = EasyDataset(kSteps * kBatch);
  auto trainer = MakeAlsh(EasyNet(data, 2, 64), s.options, s.lr);
  Batcher batcher(data, kBatch, 7);
  Matrix x;
  std::vector<int32_t> y;
  GoldenRun run;
  while (batcher.Next(&x, &y)) {
    if (s.zero_rows) {
      for (size_t r = 0; r < x.rows(); r += 3) {
        for (size_t c = 0; c < x.cols(); ++c) x(r, c) = 0.0f;
      }
    }
    run.losses.push_back(
        HexFloat(std::move(trainer->Step(x, y)).ValueOrDie("step")));
  }
  std::ostringstream state;
  EXPECT_TRUE(trainer->SaveState(state).ok());
  run.state_hash = Fnv1a(state.str());
  return run;
}

TEST(AlshGoldenTest, AdamTrajectoryIsBitwiseStable) {
  // Paper defaults: Adam, K=6, L=5, m=3.
  const std::vector<std::string> kLosses = {
      "0x1.7c2776855b181p+0", "0x1.345a9398ba328p+0", "0x1.5e7b02c37ee93p+0",
      "0x1.5261fcd618429p+0", "0x1.406d6cad8d4e2p+0", "0x1.57562d2560a6ep+0",
      "0x1.48c9ec50e62c2p+0", "0x1.12a7c688e0a62p+0", "0x1.0d45ae3d25283p+0",
      "0x1.2ac77e7a18a8p+0",  "0x1.00074df918853p+0", "0x1.196da44bcdd0ap+0",
      "0x1.0082adb710303p+0", "0x1.9e31d60f046cap-1", "0x1.1443913a36066p+0",
      "0x1.060056bb1858ep+0", "0x1.adbc1add981edp-1", "0x1.4260be0b42f73p-1",
      "0x1.9b24b7f24c315p-1", "0x1.40d05e022c96ep-1", "0x1.5c7e8f71a0142p-1",
      "0x1.84aeef06e23b1p-1", "0x1.4362787276182p-1", "0x1.1b25d7ce86794p-1",
      "0x1.f8c91c4f87006p-2", "0x1.189f7a14131aap-1", "0x1.f078345b98bcap-2",
      "0x1.22f8bc2673c8ep-2", "0x1.9b6a9a55f4b6p-2",  "0x1.528821e37fecdp-2",
      "0x1.47d56d132e92bp-2", "0x1.3683860c8b1cep-2", "0x1.5736c858a7f68p-2",
      "0x1.2a5cdb55da4e8p-2", "0x1.d6be786a5d5abp-3", "0x1.f5f4313da8665p-3",
      "0x1.c5219852f0e9p-2",  "0x1.b6df738b27538p-3", "0x1.7a3a9a59f9d14p-3",
      "0x1.1c80392405fc3p-3"};
  const GoldenRun run = RunGolden({"adam", {}});
  EXPECT_EQ(run.losses, kLosses);
  EXPECT_EQ(run.state_hash, 0xd73c2ec28ecb4c5full);
}

void PrintTo(const GoldenScenario& s, std::ostream* os) { *os << s.name; }

class AlshGoldenVariantTest : public ::testing::TestWithParam<GoldenScenario> {
};

TEST_P(AlshGoldenVariantTest, FinalStateIsBitwiseStable) {
  const GoldenScenario& s = GetParam();
  const GoldenRun run = RunGolden(s);
  EXPECT_EQ(run.losses.back(), s.last_loss);
  EXPECT_EQ(run.state_hash, s.state_hash);
}

std::vector<GoldenScenario> GoldenVariants() {
  std::vector<GoldenScenario> out;
  GoldenScenario sgd{"sgd", {}, 0.05f, false, "0x1.47e193994018p-6",
                     0xb6c95c40f18b95b4ull};
  sgd.options.optimizer = "sgd";
  out.push_back(sgd);
  GoldenScenario adagrad{"adagrad", {}, 0.05f, false, "0x1.67bea77802c7p-4",
                         0x08dd0b6678a081e8ull};
  adagrad.options.optimizer = "adagrad";
  out.push_back(adagrad);
  GoldenScenario wta{"wta", {}, 1e-3f, false, "0x1.74a4e28f6e5c3p-2",
                     0x97688e5ec3aea19aull};
  wta.options.index.family = LshFamily::kWta;
  wta.options.index.bits = 9;
  out.push_back(wta);
  // Sparse buckets, no fallback: the random-fill floor tops active sets
  // up out of index order.
  GoldenScenario floor{"random_fill_floor", {}, 1e-3f, false,
                       "0x1.fcbb6e15a8dep-1", 0x48dcd0365cfe6f04ull};
  floor.options.dense_fallback = false;
  floor.options.index.bits = 8;
  floor.options.min_active = 24;
  out.push_back(floor);
  // 1024 buckets over 64 items: most probes come back empty.
  GoldenScenario fallback{"dense_fallback", {}, 1e-3f, false,
                          "0x1.67d94f344fc98p-1", 0x55d60a2ffbe657cbull};
  fallback.options.index.bits = 10;
  out.push_back(fallback);
  // 8 buckets capped at 4: the reservoir RNG decides every overflow.
  GoldenScenario capped{"bucket_cap", {}, 1e-3f, false,
                        "0x1.dd4426e7e8e48p-1", 0x33e04280724c5680ull};
  capped.options.index.bits = 3;
  capped.options.index.max_bucket_size = 4;
  out.push_back(capped);
  GoldenScenario oracle{"oracle", {}, 1e-3f, false, "0x1.a353946974d7p-5",
                        0x195eb4a821c7834full};
  oracle.options.selection = AlshSelection::kOracle;
  oracle.options.oracle_active = 16;
  out.push_back(oracle);
  out.push_back({"zero_inputs", {}, 1e-3f, true, "0x1.7bdd37d36adc7p-1",
                 0x3e8848e27fa6b817ull});
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, AlshGoldenVariantTest, ::testing::ValuesIn(GoldenVariants()),
    [](const ::testing::TestParamInfo<GoldenScenario>& info) {
      return std::string(info.param.name);
    });

TEST(AlshTrainerTest, MinActiveFloorHonored) {
  Dataset data = EasyDataset(50);
  AlshOptions options;
  options.min_active = 20;
  options.index.bits = 10;  // 1024 buckets: most probes come back empty
  auto trainer = MakeAlsh(EasyNet(data, 2, 48), options);
  TrainEpochs(trainer.get(), data, 1, 1, nullptr, nullptr);
  EXPECT_GE(trainer->AverageActiveFraction(), 20.0 / 48.0 - 1e-6);
}

}  // namespace
}  // namespace sampnn
