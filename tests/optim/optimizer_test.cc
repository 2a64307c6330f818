#include "src/optim/optimizer.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/nn/loss.h"
#include "src/tensor/kernel_config.h"
#include "src/util/rng.h"

namespace sampnn {
namespace {

Mlp TinyNet() {
  MlpConfig cfg = MlpConfig::Uniform(2, 2, 1, 3);
  cfg.seed = 7;
  return std::move(Mlp::Create(cfg)).value();
}

// Gradients of all ones, for predictable update math.
MlpGrads OnesGrads(const Mlp& net) {
  MlpGrads grads = net.ZeroGrads();
  for (auto& g : grads) {
    g.weights.Fill(1.0f);
    std::fill(g.bias.begin(), g.bias.end(), 1.0f);
  }
  return grads;
}

TEST(SgdTest, SubtractsLrTimesGrad) {
  Mlp net = TinyNet();
  const float before = net.layer(0).weights()(0, 0);
  SgdOptimizer opt(0.5f);
  opt.Step(&net, OnesGrads(net));
  EXPECT_NEAR(net.layer(0).weights()(0, 0), before - 0.5f, 1e-6f);
  EXPECT_NEAR(net.layer(0).bias()[0], -0.5f, 1e-6f);
}

TEST(SgdTest, MomentumAccumulates) {
  Mlp net = TinyNet();
  const float before = net.layer(0).weights()(0, 0);
  SgdOptimizer opt(0.1f, 0.9f);
  opt.Step(&net, OnesGrads(net));  // v=1, w -= 0.1
  opt.Step(&net, OnesGrads(net));  // v=1.9, w -= 0.19
  EXPECT_NEAR(net.layer(0).weights()(0, 0), before - 0.1f - 0.19f, 1e-5f);
}

TEST(SgdTest, ResetClearsVelocity) {
  Mlp net = TinyNet();
  SgdOptimizer opt(0.1f, 0.9f);
  opt.Step(&net, OnesGrads(net));
  opt.Reset();
  const float before = net.layer(0).weights()(0, 0);
  opt.Step(&net, OnesGrads(net));
  // After reset, the first step is again lr * g (no momentum carry-over).
  EXPECT_NEAR(net.layer(0).weights()(0, 0), before - 0.1f, 1e-5f);
}

TEST(AdamTest, FirstStepIsLrSized) {
  Mlp net = TinyNet();
  const float before = net.layer(0).weights()(0, 0);
  AdamOptimizer opt(0.01f);
  opt.Step(&net, OnesGrads(net));
  // With constant gradients the bias-corrected first Adam step is ~lr.
  EXPECT_NEAR(net.layer(0).weights()(0, 0), before - 0.01f, 1e-4f);
}

TEST(AdamTest, LearningRateAccessors) {
  AdamOptimizer opt(0.01f);
  EXPECT_FLOAT_EQ(opt.learning_rate(), 0.01f);
  opt.set_learning_rate(0.1f);
  EXPECT_FLOAT_EQ(opt.learning_rate(), 0.1f);
  EXPECT_STREQ(opt.name(), "adam");
}

TEST(AdagradTest, StepShrinksWithAccumulation) {
  Mlp net = TinyNet();
  AdagradOptimizer opt(0.1f);
  const float w0 = net.layer(0).weights()(0, 0);
  opt.Step(&net, OnesGrads(net));
  const float step1 = w0 - net.layer(0).weights()(0, 0);
  const float w1 = net.layer(0).weights()(0, 0);
  opt.Step(&net, OnesGrads(net));
  const float step2 = w1 - net.layer(0).weights()(0, 0);
  EXPECT_GT(step1, step2);           // accumulator grows, step shrinks
  EXPECT_NEAR(step1, 0.1f, 1e-4f);   // first step ~ lr * g / |g|
  EXPECT_NEAR(step2, 0.1f / std::sqrt(2.0f), 1e-4f);
}

// Each optimizer must drive a simple quadratic-ish problem (match a fixed
// logit target through the loss) downhill.
class OptimizerConvergenceTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(OptimizerConvergenceTest, ReducesLossOnTinyProblem) {
  Mlp net = TinyNet();
  auto optimizer = std::move(MakeOptimizer(GetParam(), 0.05f)).value();

  Rng rng(3);
  Matrix x = Matrix::RandomGaussian(8, 2, rng);
  std::vector<int32_t> labels;
  for (size_t i = 0; i < 8; ++i) {
    labels.push_back(x(i, 0) > 0 ? 1 : 0);  // linearly separable
  }
  MlpWorkspace ws;
  Matrix grad_logits;
  MlpGrads grads;
  double first_loss = 0.0, last_loss = 0.0;
  for (int step = 0; step < 150; ++step) {
    net.Forward(x, &ws);
    auto loss =
        SoftmaxCrossEntropy::LossAndGrad(ws.a.back(), labels, &grad_logits);
    ASSERT_TRUE(loss.ok());
    if (step == 0) first_loss = loss.value();
    last_loss = loss.value();
    net.Backward(x, ws, grad_logits, &grads);
    optimizer->Step(&net, grads);
  }
  EXPECT_LT(last_loss, first_loss * 0.5) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllOptimizers, OptimizerConvergenceTest,
                         ::testing::Values("sgd", "sgd-momentum", "adam",
                                           "adagrad"));

// The weight sweeps run as contiguous ranges on the kernel pool. Each
// element depends only on its own state, so several steps on a paper-sized
// 784-1000-10 net must leave the same weights and the same SaveState bytes
// at 1, 2 and 4 workers (oversubscribed on small hosts). The 1000 x 10
// output layer is below one grain and runs inline.
class OptimizerWorkerInvarianceTest
    : public ::testing::TestWithParam<std::string> {
 protected:
  void TearDown() override {
    SetGemmThreads(0);
    SetGemmOversubscribe(false);
  }
};

TEST_P(OptimizerWorkerInvarianceTest, StepsAreBitwiseEqualAcrossWorkers) {
  MlpConfig cfg = MlpConfig::Uniform(784, 10, 1, 1000);
  cfg.seed = 17;
  const Mlp start = std::move(Mlp::Create(cfg)).value();
  Rng rng(18);
  std::vector<MlpGrads> steps(3, start.ZeroGrads());
  for (MlpGrads& grads : steps) {
    for (LayerGrads& g : grads) {
      g.weights = Matrix::RandomGaussian(g.weights.rows(), g.weights.cols(),
                                         rng, 0.0f, 0.1f);
      for (float& b : g.bias) b = 0.1f * rng.NextGaussian();
    }
  }
  auto run = [&](size_t workers, Mlp* net) {
    SetGemmOversubscribe(true);
    SetGemmThreads(workers);
    auto opt = std::move(MakeOptimizer(GetParam(), 0.01f)).value();
    for (const MlpGrads& grads : steps) opt->Step(net, grads);
    std::ostringstream state;
    EXPECT_TRUE(opt->SaveState(state).ok());
    return state.str();
  };
  Mlp want = start.Clone();
  const std::string want_state = run(1, &want);
  for (const size_t workers : {2, 4}) {
    Mlp got = start.Clone();
    EXPECT_EQ(run(workers, &got), want_state) << workers << " workers";
    for (size_t k = 0; k < got.num_layers(); ++k) {
      const Matrix& gw = got.layer(k).weights();
      const Matrix& ww = want.layer(k).weights();
      EXPECT_EQ(std::memcmp(gw.data(), ww.data(), gw.size() * sizeof(float)),
                0)
          << "layer " << k << ", " << workers << " workers";
      EXPECT_TRUE(std::equal(got.layer(k).bias().begin(),
                             got.layer(k).bias().end(),
                             want.layer(k).bias().begin()));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllOptimizers, OptimizerWorkerInvarianceTest,
                         ::testing::Values("sgd", "sgd-momentum", "adam",
                                           "adagrad"));

// Every optimizer checks each gradient's shape against its layer before
// reading it; a mis-shaped weight or bias gradient used to be read past its
// end.
class OptimizerDeathTest : public ::testing::TestWithParam<std::string> {};

TEST_P(OptimizerDeathTest, MisShapedGradsAbort) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mlp net = TinyNet();
  auto opt = std::move(MakeOptimizer(GetParam(), 0.1f)).value();
  MlpGrads short_weights = net.ZeroGrads();
  short_weights[1].weights = Matrix(1, 1);
  EXPECT_DEATH(opt->Step(&net, short_weights), "check failed.*weights");
  MlpGrads short_bias = net.ZeroGrads();
  short_bias[0].bias.pop_back();
  EXPECT_DEATH(opt->Step(&net, short_bias), "check failed.*bias");
}

INSTANTIATE_TEST_SUITE_P(AllOptimizers, OptimizerDeathTest,
                         ::testing::Values("sgd", "sgd-momentum", "adam",
                                           "adagrad"));

TEST(MakeOptimizerTest, RejectsUnknownNameAndBadLr) {
  EXPECT_TRUE(MakeOptimizer("rmsprop", 0.1f).status().IsInvalidArgument());
  EXPECT_TRUE(MakeOptimizer("sgd", 0.0f).status().IsInvalidArgument());
  EXPECT_TRUE(MakeOptimizer("sgd", -1.0f).status().IsInvalidArgument());
}

TEST(MakeOptimizerTest, BuildsEachKind) {
  for (const char* name : {"sgd", "sgd-momentum", "adam", "adagrad"}) {
    auto opt = MakeOptimizer(name, 0.1f);
    ASSERT_TRUE(opt.ok()) << name;
  }
  EXPECT_STREQ(std::move(MakeOptimizer("sgd-momentum", 0.1f)).value()->name(),
               "sgd");
}

}  // namespace
}  // namespace sampnn
