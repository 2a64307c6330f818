#include "src/lsh/alsh_transform.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "src/util/rng.h"

namespace sampnn {
namespace {

AlshTransform MakeTransform(size_t m = 3, float U = 0.83f) {
  AlshTransformOptions options;
  options.m = m;
  options.U = U;
  return std::move(AlshTransform::Create(options)).value();
}

TEST(AlshTransformTest, CreateValidatesOptions) {
  AlshTransformOptions bad;
  bad.m = 0;
  EXPECT_TRUE(AlshTransform::Create(bad).status().IsInvalidArgument());
  bad.m = 3;
  bad.U = 1.0f;
  EXPECT_TRUE(AlshTransform::Create(bad).status().IsInvalidArgument());
  bad.U = 0.0f;
  EXPECT_TRUE(AlshTransform::Create(bad).status().IsInvalidArgument());
  bad.U = 0.5f;
  EXPECT_TRUE(AlshTransform::Create(bad).ok());
}

TEST(AlshTransformTest, TransformedDimAddsM) {
  AlshTransform t = MakeTransform(4);
  EXPECT_EQ(t.TransformedDim(10), 14u);
}

TEST(AlshTransformTest, DataPaddingIsNormPowers) {
  AlshTransform t = MakeTransform(3);
  t.SetScale(1.0f);  // no scaling: padding is ||w||^2, ||w||^4, ||w||^8
  // One column, ||w|| = 5.
  auto w = std::move(Matrix::FromVector(2, 1, {3.0f, 4.0f})).value();
  std::vector<float> out(5);
  t.TransformColumns(w, 0, 1, out);
  EXPECT_FLOAT_EQ(out[0], 3.0f);
  EXPECT_FLOAT_EQ(out[1], 4.0f);
  EXPECT_FLOAT_EQ(out[2], 25.0f);
  EXPECT_FLOAT_EQ(out[3], 625.0f);
  EXPECT_FLOAT_EQ(out[4], 390625.0f);
}

TEST(AlshTransformTest, QueryPaddingIsHalves) {
  AlshTransform t = MakeTransform(3);
  std::vector<float> a{1.0f, 0.0f};
  std::vector<float> out(5);
  t.TransformQuery(a, out);
  EXPECT_FLOAT_EQ(out[0], 1.0f);
  EXPECT_FLOAT_EQ(out[1], 0.0f);
  EXPECT_FLOAT_EQ(out[2], 0.5f);
  EXPECT_FLOAT_EQ(out[3], 0.5f);
  EXPECT_FLOAT_EQ(out[4], 0.5f);
}

TEST(AlshTransformTest, QueryIsUnitNormalized) {
  AlshTransform t = MakeTransform(2);
  std::vector<float> a{3.0f, 4.0f};
  std::vector<float> out(4);
  t.TransformQuery(a, out);
  EXPECT_FLOAT_EQ(out[0], 0.6f);
  EXPECT_FLOAT_EQ(out[1], 0.8f);
}

TEST(AlshTransformTest, ZeroQueryPassesThrough) {
  AlshTransform t = MakeTransform(2);
  std::vector<float> a{0.0f, 0.0f};
  std::vector<float> out(4);
  t.TransformQuery(a, out);
  EXPECT_FLOAT_EQ(out[0], 0.0f);
  EXPECT_FLOAT_EQ(out[2], 0.5f);
}

TEST(AlshTransformTest, FitScaleBoundsMaxColumnNorm) {
  AlshTransform t = MakeTransform(3, 0.8f);
  auto w = std::move(Matrix::FromVector(2, 2, {3, 0, 4, 1})).value();
  // Column norms: 5 and 1 -> scale = 0.8 / 5.
  t.FitScaleFromColumns(w);
  EXPECT_FLOAT_EQ(t.scale(), 0.16f);
  std::vector<float> out(5);
  t.TransformColumns(w, 0, 1, out);  // column 0 = (3, 4)
  const float norm = std::sqrt(out[0] * out[0] + out[1] * out[1]);
  EXPECT_NEAR(norm, 0.8f, 1e-5f);
}

TEST(AlshTransformTest, FitScaleOnZeroMatrixIsOne) {
  AlshTransform t = MakeTransform();
  Matrix w(3, 3);
  t.FitScaleFromColumns(w);
  EXPECT_FLOAT_EQ(t.scale(), 1.0f);
}

// Equation 3 (the core ALSH guarantee): after the P/Q transform, the column
// with maximum inner product has minimum Euclidean distance to the query.
TEST(AlshTransformTest, MipsReducesToNearestNeighbor) {
  Rng rng(42);
  constexpr size_t kDim = 16, kItems = 50;
  Matrix w = Matrix::RandomGaussian(kDim, kItems, rng);
  AlshTransform t = MakeTransform(3);
  t.FitScaleFromColumns(w);

  for (int trial = 0; trial < 20; ++trial) {
    std::vector<float> q(kDim);
    for (auto& v : q) v = rng.NextGaussian();

    // Exact argmax inner product.
    size_t best_ip = 0;
    float best_ip_val = -1e30f;
    for (size_t j = 0; j < kItems; ++j) {
      float ip = 0.0f;
      for (size_t i = 0; i < kDim; ++i) ip += q[i] * w(i, j);
      if (ip > best_ip_val) {
        best_ip_val = ip;
        best_ip = j;
      }
    }
    // Argmin distance in the transformed space.
    std::vector<float> tq(t.TransformedDim(kDim));
    t.TransformQuery(q, tq);
    size_t best_nn = 0;
    float best_dist = 1e30f;
    std::vector<float> tw(t.TransformedDim(kDim));
    for (size_t j = 0; j < kItems; ++j) {
      t.TransformColumns(w, j, j + 1, tw);
      float dist = 0.0f;
      for (size_t i = 0; i < tw.size(); ++i) {
        const float d = tq[i] - tw[i];
        dist += d * d;
      }
      if (dist < best_dist) {
        best_dist = dist;
        best_nn = j;
      }
    }
    EXPECT_EQ(best_nn, best_ip) << "trial " << trial;
  }
}

}  // namespace
}  // namespace sampnn
