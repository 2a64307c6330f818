#include "src/nn/mlp.h"

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "src/nn/loss.h"
#include "src/tensor/kernel_config.h"

namespace sampnn {
namespace {

MlpConfig SmallConfig() {
  MlpConfig cfg = MlpConfig::Uniform(4, 3, 2, 6);
  cfg.seed = 42;
  return cfg;
}

TEST(MlpCreateTest, ValidatesDimensions) {
  MlpConfig cfg = SmallConfig();
  cfg.input_dim = 0;
  EXPECT_TRUE(Mlp::Create(cfg).status().IsInvalidArgument());
  cfg = SmallConfig();
  cfg.output_dim = 0;
  EXPECT_TRUE(Mlp::Create(cfg).status().IsInvalidArgument());
  cfg = SmallConfig();
  cfg.hidden_dims = {5, 0, 5};
  EXPECT_TRUE(Mlp::Create(cfg).status().IsInvalidArgument());
}

TEST(MlpCreateTest, LayerShapesChain) {
  auto net = std::move(Mlp::Create(SmallConfig())).value();
  ASSERT_EQ(net.num_layers(), 3u);
  EXPECT_EQ(net.num_hidden_layers(), 2u);
  EXPECT_EQ(net.layer(0).in_dim(), 4u);
  EXPECT_EQ(net.layer(0).out_dim(), 6u);
  EXPECT_EQ(net.layer(1).in_dim(), 6u);
  EXPECT_EQ(net.layer(2).out_dim(), 3u);
  EXPECT_EQ(net.input_dim(), 4u);
  EXPECT_EQ(net.output_dim(), 3u);
}

TEST(MlpCreateTest, NoHiddenLayersIsLogisticRegression) {
  MlpConfig cfg = MlpConfig::Uniform(5, 2, 0, 0);
  auto net = Mlp::Create(cfg);
  ASSERT_TRUE(net.ok());
  EXPECT_EQ(net->num_layers(), 1u);
  EXPECT_EQ(net->num_hidden_layers(), 0u);
}

TEST(MlpCreateTest, OutputLayerIsLinear) {
  auto net = std::move(Mlp::Create(SmallConfig())).value();
  EXPECT_EQ(net.layer(net.num_layers() - 1).activation(), Activation::kLinear);
}

TEST(MlpCreateTest, SameSeedSameWeights) {
  auto a = std::move(Mlp::Create(SmallConfig())).value();
  auto b = std::move(Mlp::Create(SmallConfig())).value();
  for (size_t k = 0; k < a.num_layers(); ++k) {
    EXPECT_TRUE(a.layer(k).weights().AllClose(b.layer(k).weights(), 0.0f));
  }
}

TEST(MlpForwardTest, ShapesAndWorkspace) {
  auto net = std::move(Mlp::Create(SmallConfig())).value();
  Rng rng(1);
  Matrix x = Matrix::RandomGaussian(5, 4, rng);
  MlpWorkspace ws;
  const Matrix& logits = net.Forward(x, &ws);
  EXPECT_EQ(logits.rows(), 5u);
  EXPECT_EQ(logits.cols(), 3u);
  ASSERT_EQ(ws.z.size(), 3u);
  ASSERT_EQ(ws.a.size(), 3u);
  EXPECT_EQ(ws.a[0].cols(), 6u);
}

// Serving relies on a row's logits not depending on the batch it rides in:
// a one-row request must equal the same row of an offline Predict batch.
// Batches up to 24 rows read W in place (one row on the 1 x 64 tile), taller
// ones pack it; every batch must give the large batch's rows bit for bit,
// at 1 and 4 workers. The widths (530, 70, 10) leave partial column tiles,
// and fan-ins of 600 and 530 cross a Kc boundary at every derived blocking
// (kc <= 512). Sending one-row products to VecMat, which sums all fan-in
// terms in one chain, would break this.
class MlpBatchInvarianceTest : public ::testing::Test {
 protected:
  void TearDown() override {
    SetGemmThreads(0);
    SetGemmParallelMinFlops(0);
    SetGemmOversubscribe(false);
  }
};

TEST_F(MlpBatchInvarianceTest, ForwardRowsAreBitwiseIndependentOfBatchSize) {
  MlpConfig cfg;
  cfg.input_dim = 600;
  cfg.hidden_dims = {530, 70};
  cfg.output_dim = 10;
  cfg.seed = 5;
  auto net = std::move(Mlp::Create(cfg)).value();
  Rng rng(6);
  const Matrix x = Matrix::RandomGaussian(64, cfg.input_dim, rng);
  // Every product runs on the kernel pool, oversubscribed on small hosts.
  SetGemmParallelMinFlops(1);
  SetGemmOversubscribe(true);
  SetGemmThreads(1);
  MlpWorkspace ws;
  const Matrix want = net.Forward(x, &ws);
  for (const size_t threads : {1, 4}) {
    SetGemmThreads(threads);
    for (const size_t batch : {1, 2, 5, 6, 7, 8, 20, 24, 25, 64}) {
      Matrix xb(batch, x.cols());
      std::memcpy(xb.data(), x.data(), xb.size() * sizeof(float));
      const Matrix& got = net.Forward(xb, &ws);
      ASSERT_EQ(std::memcmp(got.data(), want.data(),
                            got.size() * sizeof(float)),
                0)
          << "batch " << batch << ", " << threads << " workers";
    }
  }
}

TEST(MlpForwardTest, ReluZeroesNegativePreactivations) {
  auto net = std::move(Mlp::Create(SmallConfig())).value();
  Rng rng(3);
  Matrix x = Matrix::RandomGaussian(2, 4, rng);
  MlpWorkspace ws;
  net.Forward(x, &ws);
  for (size_t k = 0; k < net.num_hidden_layers(); ++k) {
    for (size_t i = 0; i < ws.a[k].size(); ++i) {
      EXPECT_GE(ws.a[k].data()[i], 0.0f);
    }
  }
}

// Dropout-style masks fixed in advance, so the masked loss is a smooth
// function of the weights: zeros and the 1/p scale of kept units.
class FrozenMasks : public DensePolicy {
 public:
  FrozenMasks(size_t num_hidden, size_t batch, size_t width, float keep) {
    Rng rng(17);
    for (size_t k = 0; k < num_hidden; ++k) {
      Matrix mask(batch, width);
      for (size_t i = 0; i < mask.size(); ++i) {
        mask.data()[i] = rng.NextBernoulli(keep) ? 1.0f / keep : 0.0f;
      }
      masks_.push_back(std::move(mask));
    }
  }
  const Matrix* Mask(size_t k, const Matrix& /*z*/) override {
    return &masks_[k];
  }

 private:
  std::vector<Matrix> masks_;
};

// The decisive correctness test: analytic backprop vs central differences on
// the full loss, over every parameter of a small network — once exact, and
// once under frozen masks (the Dropout family's gradient).
TEST(MlpBackwardTest, MatchesNumericalGradients) {
  MlpConfig cfg = MlpConfig::Uniform(3, 2, 2, 4);
  cfg.seed = 9;
  cfg.hidden_activation = Activation::kTanh;  // smooth: finite diffs behave
  Rng rng(4);
  Matrix x = Matrix::RandomGaussian(4, 3, rng);
  std::vector<int32_t> labels{0, 1, 1, 0};
  DensePolicy exact;
  FrozenMasks masked(2, 4, 4, 0.5f);
  for (DensePolicy* policy : {&exact, static_cast<DensePolicy*>(&masked)}) {
    SCOPED_TRACE(policy == &exact ? "exact" : "frozen masks");
    auto net = std::move(Mlp::Create(cfg)).value();
    MlpWorkspace ws;
    Matrix grad_logits;
    ASSERT_TRUE(net.Forward(x, *policy, &ws).ok());
    ASSERT_TRUE(
        SoftmaxCrossEntropy::LossAndGrad(ws.a.back(), labels, &grad_logits)
            .ok());
    MlpGrads grads;
    ASSERT_TRUE(net.Backward(x, grad_logits, *policy, &ws, &grads).ok());

    auto loss_at = [&](Mlp& candidate) {
      MlpWorkspace tmp;
      EXPECT_TRUE(candidate.Forward(x, *policy, &tmp).ok());
      return SoftmaxCrossEntropy::Loss(tmp.a.back(), labels).value();
    };
    const float kEps = 1e-2f;
    for (size_t k = 0; k < net.num_layers(); ++k) {
      Matrix& w = net.layer(k).weights();
      for (size_t i = 0; i < w.rows(); ++i) {
        for (size_t j = 0; j < w.cols(); ++j) {
          const float orig = w(i, j);
          w(i, j) = orig + kEps;
          const double lp = loss_at(net);
          w(i, j) = orig - kEps;
          const double lm = loss_at(net);
          w(i, j) = orig;
          EXPECT_NEAR(grads[k].weights(i, j), (lp - lm) / (2.0 * kEps), 5e-3)
              << "layer " << k << " W(" << i << "," << j << ")";
        }
      }
      auto bias = net.layer(k).bias();
      for (size_t j = 0; j < bias.size(); ++j) {
        const float orig = bias[j];
        bias[j] = orig + kEps;
        const double lp = loss_at(net);
        bias[j] = orig - kEps;
        const double lm = loss_at(net);
        bias[j] = orig;
        EXPECT_NEAR(grads[k].bias[j], (lp - lm) / (2.0 * kEps), 5e-3)
            << "layer " << k << " b(" << j << ")";
      }
    }
  }
}

TEST(MlpTest, ZeroGradsShapedLikeNetwork) {
  auto net = std::move(Mlp::Create(SmallConfig())).value();
  MlpGrads grads = net.ZeroGrads();
  ASSERT_EQ(grads.size(), net.num_layers());
  for (size_t k = 0; k < grads.size(); ++k) {
    EXPECT_EQ(grads[k].weights.rows(), net.layer(k).in_dim());
    EXPECT_EQ(grads[k].weights.cols(), net.layer(k).out_dim());
    EXPECT_EQ(grads[k].bias.size(), net.layer(k).out_dim());
    EXPECT_EQ(grads[k].weights.FrobeniusNorm(), 0.0f);
  }
}

TEST(MlpTest, NumParamsCountsWeightsAndBiases) {
  auto net = std::move(Mlp::Create(SmallConfig())).value();
  // 4*6+6 + 6*6+6 + 6*3+3 = 30 + 42 + 21 = 93.
  EXPECT_EQ(net.num_params(), 93u);
}

TEST(MlpTest, PredictReturnsClassIds) {
  auto net = std::move(Mlp::Create(SmallConfig())).value();
  Rng rng(5);
  Matrix x = Matrix::RandomGaussian(6, 4, rng);
  const auto preds = net.Predict(x);
  ASSERT_EQ(preds.size(), 6u);
  for (int32_t p : preds) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 3);
  }
}

TEST(MlpTest, CloneIsIndependent) {
  auto net = std::move(Mlp::Create(SmallConfig())).value();
  Mlp clone = net.Clone();
  clone.layer(0).weights()(0, 0) += 100.0f;
  EXPECT_NE(clone.layer(0).weights()(0, 0), net.layer(0).weights()(0, 0));
}

TEST(MlpTest, ArchitectureString) {
  auto net = std::move(Mlp::Create(SmallConfig())).value();
  EXPECT_EQ(net.ArchitectureString(), "4-6-6-3 (relu)");
}

TEST(LayerGradsTest, SetZeroClearsWithoutResize) {
  auto net = std::move(Mlp::Create(SmallConfig())).value();
  LayerGrads g = LayerGrads::ZerosLike(net.layer(0));
  g.weights.Fill(3.0f);
  g.bias.assign(g.bias.size(), 2.0f);
  g.SetZero();
  EXPECT_EQ(g.weights.FrobeniusNorm(), 0.0f);
  for (float b : g.bias) EXPECT_EQ(b, 0.0f);
}

}  // namespace
}  // namespace sampnn
