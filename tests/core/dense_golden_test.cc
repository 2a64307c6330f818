// Golden trajectories for the dense step: Standard, Dropout,
// Adaptive-Dropout and MC through Trainer::Step, the conv classifier's
// exact, MC and Dropout modes, and McBackend's degraded rung. Every
// product, mask draw, activation and update feeds the fingerprints, so a
// change that moves one bit anywhere in the step moves a constant. The
// constants were recorded with the per-method forward and backward loops
// that the shared Mlp loops and DensePolicy replaced.
//
// Runs with the deterministic dense kernels, so the constants do not
// depend on the build type, the ISA or the host's cache blocking.

#include <sstream>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "src/cnn/conv_classifier.h"
#include "src/serve/model_backend.h"
#include "tests/core/test_util.h"

namespace sampnn {
namespace {

using testing_util::DeterministicKernelsScope;
using testing_util::EasyDataset;
using testing_util::EasyNet;
using testing_util::Fnv1a;
using testing_util::HexFloat;

std::string_view Bytes(const Matrix& m) {
  return {reinterpret_cast<const char*>(m.data()), m.size() * sizeof(float)};
}

// Each step appends "<loss> <grad norm²>\n" in hex to `steps`.
struct GoldenRun {
  std::string steps;
  std::string last_loss;
  uint64_t state_hash = 0;  // FNV-1a of SaveState (trainers) or Predict
};

struct DenseScenario {
  const char* name;
  TrainerKind kind;
  const char* optimizer;
  float lr;
  size_t batch;
  bool approx_forward;
  const char* last_loss;
  uint64_t steps_hash;
  uint64_t state_hash;
};

void PrintTo(const DenseScenario& s, std::ostream* os) { *os << s.name; }

// 30 steps, one epoch. MC's delta floor is lowered to 16 so that the
// 64-wide hidden layers take the sampled δ·Wᵀ product, not its exact
// fallback.
GoldenRun RunTrainer(const DenseScenario& s) {
  const DeterministicKernelsScope deterministic;
  constexpr size_t kSteps = 30;
  Dataset data = EasyDataset(kSteps * s.batch);
  TrainerOptions options;
  options.kind = s.kind;
  options.optimizer = s.optimizer;
  options.learning_rate = s.lr;
  options.mc.delta_min_samples = 16;
  options.mc.approx_forward = s.approx_forward;
  auto trainer =
      std::move(MakeTrainer(EasyNet(data, 2, 64), options)).value();
  trainer->set_track_grad_norm(true);
  Batcher batcher(data, s.batch, 7);
  Matrix x;
  std::vector<int32_t> y;
  GoldenRun run;
  while (batcher.Next(&x, &y)) {
    run.last_loss = HexFloat(std::move(trainer->Step(x, y)).ValueOrDie("step"));
    run.steps += run.last_loss + " " + HexFloat(trainer->last_grad_norm2()) +
                 "\n";
  }
  std::ostringstream state;
  EXPECT_TRUE(trainer->SaveState(state).ok());
  run.state_hash = Fnv1a(state.str());
  return run;
}

class DenseGoldenTest : public ::testing::TestWithParam<DenseScenario> {};

TEST_P(DenseGoldenTest, TrajectoryIsBitwiseStable) {
  const DenseScenario& s = GetParam();
  const GoldenRun run = RunTrainer(s);
  EXPECT_EQ(run.last_loss, s.last_loss);
  EXPECT_EQ(Fnv1a(run.steps), s.steps_hash)
      << std::hex << "0x" << Fnv1a(run.steps);
  EXPECT_EQ(run.state_hash, s.state_hash) << std::hex << "0x" << run.state_hash;
}

constexpr TrainerKind kStd = TrainerKind::kStandard;
constexpr TrainerKind kDrop = TrainerKind::kDropout;
constexpr TrainerKind kAda = TrainerKind::kAdaptiveDropout;
constexpr TrainerKind kMc = TrainerKind::kMc;

INSTANTIATE_TEST_SUITE_P(
    Scenarios, DenseGoldenTest,
    ::testing::Values(
        DenseScenario{"standard_adam_b20", kStd, "adam", 1e-3f, 20, false,
                      "0x1.558a2fc34878dp-1", 0x34e86e8f03023732ull,
                      0xc3710d44252e52caull},
        DenseScenario{"standard_sgdm_b1", kStd, "sgd-momentum", 1e-2f, 1, false,
                      "0x1.404fb5b65fbecp+0", 0x1bea9c7acebd8f31ull,
                      0xfaee52b2e7eb9bc5ull},
        DenseScenario{"standard_adagrad_b7", kStd, "adagrad", 1e-2f, 7, false,
                      "0x1.3e6064e49ca1ap-1", 0xe33ddf92bf5ff84full,
                      0x70f830de05e98167ull},
        DenseScenario{"dropout_adam_b20", kDrop, "adam", 1e-3f, 20, false,
                      "0x1.e87fe59190ea3p+1", 0x1cbe9951735a697cull,
                      0xa5698886456dad6ull},
        DenseScenario{"dropout_sgdm_b1", kDrop, "sgd-momentum", 1e-2f, 1, false,
                      "0x1.2d68c1512cecap+3", 0xaf6d87e01c9b4e98ull,
                      0xede39bedd6565bf7ull},
        DenseScenario{"dropout_adagrad_b7", kDrop, "adagrad", 1e-2f, 7, false,
                      "0x1.a9912c1b10075p+4", 0xef78289cd6be7a38ull,
                      0x1e4d7b45a5c937baull},
        DenseScenario{"adaptive_adam_b20", kAda, "adam", 1e-3f, 20, false,
                      "0x1.e0c0e364799dap-1", 0xa78f29571ff70761ull,
                      0xb4a614edc17a560dull},
        DenseScenario{"adaptive_sgdm_b1", kAda, "sgd-momentum", 1e-2f, 1, false,
                      "0x1.44e41df36dc9p-1", 0x9933f80f00a70296ull,
                      0xab7a62a5596d5e22ull},
        DenseScenario{"adaptive_adagrad_b7", kAda, "adagrad", 1e-2f, 7, false,
                      "0x1.eaa6e54ef61cp-1", 0x1da478ba838af839ull,
                      0x3fe3dc5601c76019ull},
        DenseScenario{"mc_adam_b20", kMc, "adam", 1e-3f, 20, false,
                      "0x1.c6497c120bf12p-1", 0x12fc5b132784d9dcull,
                      0xd32196c8262682b2ull},
        DenseScenario{"mc_sgdm_b1", kMc, "sgd-momentum", 1e-2f, 1, false,
                      "0x1.87fbf0b41b0f8p-1", 0x7f8efd5da40b2aefull,
                      0x82bf4a3e93bf901bull},
        DenseScenario{"mc_adagrad_b7", kMc, "adagrad", 1e-2f, 7, false,
                      "0x1.4f6a04ec9d879p-1", 0x7e0a58ff318f5013ull,
                      0xfae2c5b70139d132ull},
        DenseScenario{"mc_approx_forward_adam_b20", kMc, "adam", 1e-3f, 20,
                      true, "0x1.543708266ca52p+1", 0x34e57dc4cb27b9b6ull,
                      0xd1a98f74b9afba83ull}),
    [](const ::testing::TestParamInfo<DenseScenario>& info) {
      return std::string(info.param.name);
    });

// --- Conv classifier -------------------------------------------------------

struct ConvScenario {
  const char* name;
  ClassifierMode mode;
  bool train_features;
  const char* last_loss;
  uint64_t steps_hash;
  uint64_t predict_hash;
};

void PrintTo(const ConvScenario& s, std::ostream* os) { *os << s.name; }

// 12 steps of 16 over 12x12 single-channel images, 3 classes. In MC mode
// the weight-gradient products sample 10 of 16 rows.
GoldenRun RunConv(const ConvScenario& s) {
  const DeterministicKernelsScope deterministic;
  SyntheticSpec spec;
  spec.name = "conv-golden";
  spec.image_height = 12;
  spec.image_width = 12;
  spec.num_classes = 3;
  spec.num_examples = 192;
  spec.prototypes_per_class = 1;
  spec.noise_stddev = 0.05f;
  spec.shared_structure = 0.1f;
  spec.max_shift = 1;
  const Dataset data = GenerateSynthetic(spec, 11);
  ConvClassifierConfig cfg;
  cfg.features.input = {1, 12, 12};
  cfg.features.stem_channels = 4;
  cfg.features.num_blocks = 1;
  cfg.hidden = 32;
  cfg.num_classes = 3;
  cfg.mode = s.mode;
  cfg.dropout_keep = 0.5f;
  cfg.learning_rate = 0.05f;
  cfg.train_features = s.train_features;
  auto model = std::move(ConvClassifier::Create(cfg)).value();
  Batcher batcher(data, 16, 7);
  Matrix x;
  std::vector<int32_t> y;
  GoldenRun run;
  while (batcher.Next(&x, &y)) {
    run.last_loss = HexFloat(std::move(model.Step(x, y)).ValueOrDie("step"));
    run.steps += run.last_loss + "\n";
  }
  std::vector<size_t> all(data.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  data.FillBatch(all, &x, &y);
  const std::vector<int32_t> preds = model.Predict(x);
  run.state_hash = Fnv1a({reinterpret_cast<const char*>(preds.data()),
                          preds.size() * sizeof(int32_t)});
  return run;
}

class ConvGoldenTest : public ::testing::TestWithParam<ConvScenario> {};

TEST_P(ConvGoldenTest, TrajectoryIsBitwiseStable) {
  const ConvScenario& s = GetParam();
  const GoldenRun run = RunConv(s);
  EXPECT_EQ(run.last_loss, s.last_loss);
  EXPECT_EQ(Fnv1a(run.steps), s.steps_hash)
      << std::hex << "0x" << Fnv1a(run.steps);
  EXPECT_EQ(run.state_hash, s.predict_hash)
      << std::hex << "0x" << run.state_hash;
}

INSTANTIATE_TEST_SUITE_P(
    Modes, ConvGoldenTest,
    ::testing::Values(
        ConvScenario{"exact", ClassifierMode::kExact, true,
                     "0x1.00ac63527725ap+0", 0x3f4eed538c85531aull,
                     0x389455ecfa707794ull},
        ConvScenario{"mc", ClassifierMode::kMc, true,
                     "0x1.f6340313a60e2p-1", 0xbc470f393273ac7bull,
                     0xeb1d735ec8eb0ef6ull},
        ConvScenario{"dropout", ClassifierMode::kDropout, true,
                     "0x1.229f6bf523124p+0", 0xf8d85d2f32accf57ull,
                     0xb517d364a33d0177ull},
        ConvScenario{"mc_frozen_features", ClassifierMode::kMc, false,
                     "0x1.12b142a7a148ep+0", 0x4412ff41221ebd25ull,
                     0xc0439df21d672505ull}),
    [](const ::testing::TestParamInfo<ConvScenario>& info) {
      return std::string(info.param.name);
    });

// --- McBackend's degraded rung ---------------------------------------------

// Three successive degraded calls draw fresh samples from one estimator
// stream; at 70 samples the 64-wide layers take the exact fallback and
// the 100-wide input layer is still sampled.
TEST(DenseGoldenTest, McBackendDegradedOutputsAreBitwiseStable) {
  const DeterministicKernelsScope deterministic;
  const Dataset data = EasyDataset(8);
  std::vector<size_t> rows{0, 1, 2, 3, 4};
  Matrix batch;
  std::vector<int32_t> labels;
  data.FillBatch(rows, &batch, &labels);
  const MlpConfig net_config = EasyNet(data, 2, 64);
  const CancelContext ctx;
  std::vector<uint64_t> got;
  for (const size_t samples : {8, 70}) {
    McBackendOptions options;
    options.degraded_samples = samples;
    auto backend = MakeMcBackend(
        std::move(Mlp::Create(net_config)).value(), options);
    for (int call = 0; call < (samples == 8 ? 3 : 1); ++call) {
      Matrix logits;
      ASSERT_TRUE(
          backend->Forward(batch, ctx, ServeQuality::kDegraded, &logits).ok());
      got.push_back(Fnv1a(Bytes(logits)));
    }
  }
  const std::vector<uint64_t> want = {
      0xb24fb0b1d6445b3aull, 0x52cb0c8ca07189cull, 0x16ffb2f23fd1bb53ull,
      0x9208f8ffd29faa4aull};
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "output " << i << std::hex << ": 0x"
                               << got[i];
  }
}

}  // namespace
}  // namespace sampnn
