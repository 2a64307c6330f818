#include "src/tensor/kernels.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>

#include <gtest/gtest.h>

#include "src/tensor/kernel_config.h"
#include "src/util/rng.h"

namespace sampnn {
namespace {

// Naive triple-loop reference.
Matrix NaiveMatmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.cols(); ++j) {
      float acc = 0.0f;
      for (size_t l = 0; l < a.cols(); ++l) acc += a(i, l) * b(l, j);
      c(i, j) = acc;
    }
  }
  return c;
}

using GemmShape = std::tuple<size_t, size_t, size_t>;  // m, k, n

class GemmShapeTest : public ::testing::TestWithParam<GemmShape> {};

TEST_P(GemmShapeTest, MatchesNaiveReference) {
  const auto [m, k, n] = GetParam();
  Rng rng(m * 1000 + k * 10 + n);
  Matrix a = Matrix::RandomGaussian(m, k, rng);
  Matrix b = Matrix::RandomGaussian(k, n, rng);
  Matrix c(m, n);
  Gemm(a, b, &c);
  EXPECT_TRUE(c.AllClose(NaiveMatmul(a, b), 1e-3f));
}

TEST_P(GemmShapeTest, TransAMatchesExplicitTranspose) {
  const auto [m, k, n] = GetParam();
  Rng rng(m + k + n);
  Matrix a = Matrix::RandomGaussian(m, k, rng);  // use A^T: (k x m)^T
  Matrix b = Matrix::RandomGaussian(m, n, rng);
  Matrix c(k, n);
  GemmTransA(a, b, &c);
  EXPECT_TRUE(c.AllClose(NaiveMatmul(a.Transposed(), b), 1e-3f));
}

TEST_P(GemmShapeTest, TransBMatchesExplicitTranspose) {
  const auto [m, k, n] = GetParam();
  Rng rng(3 * m + k - n);
  Matrix a = Matrix::RandomGaussian(m, k, rng);
  Matrix b = Matrix::RandomGaussian(n, k, rng);
  Matrix c(m, n);
  GemmTransB(a, b, &c);
  EXPECT_TRUE(c.AllClose(NaiveMatmul(a, b.Transposed()), 1e-3f));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapeTest,
    ::testing::Values(GemmShape{1, 1, 1}, GemmShape{1, 8, 5},
                      GemmShape{5, 1, 7}, GemmShape{3, 3, 3},
                      GemmShape{17, 33, 9}, GemmShape{64, 64, 64},
                      GemmShape{2, 100, 300}, GemmShape{65, 129, 257}));

TEST(GemmTest, AlphaScales) {
  Rng rng(1);
  Matrix a = Matrix::RandomGaussian(4, 4, rng);
  Matrix b = Matrix::RandomGaussian(4, 4, rng);
  Matrix c1(4, 4), c2(4, 4);
  Gemm(a, b, &c1, 1.0f);
  Gemm(a, b, &c2, 2.5f);
  for (size_t i = 0; i < c1.size(); ++i) {
    EXPECT_NEAR(c2.data()[i], 2.5f * c1.data()[i], 1e-4f);
  }
}

TEST(GemmTest, BetaAccumulates) {
  Rng rng(2);
  Matrix a = Matrix::RandomGaussian(3, 3, rng);
  Matrix b = Matrix::RandomGaussian(3, 3, rng);
  Matrix c = Matrix::Filled(3, 3, 1.0f);
  Gemm(a, b, &c, 1.0f, 1.0f);
  Matrix expected = NaiveMatmul(a, b);
  for (size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c.data()[i], expected.data()[i] + 1.0f, 1e-4f);
  }
}

// Restores the GEMM dispatch settings a test changes.
struct GemmConfigGuard {
  ~GemmConfigGuard() {
    SetGemmThreads(0);
    SetGemmBlockSizes(0, 0, 0);
    SetGemmParallelMinFlops(min_flops);
    SetGemmOversubscribe(oversubscribe);
  }
  const uint64_t min_flops = GemmParallelMinFlops();
  const bool oversubscribe = GemmOversubscribe();
};

// beta = 0 discards C: a serial product zeroes it first, and a product on
// the pool never reads it (the first Kc block of each tile stores 0 + its
// sum). Either way the bits must equal accumulating (beta = 1) into a
// zeroed C, over NaN garbage, in all three orientations: skinny (in place,
// packed per task, one row) and tall (shared panel), one Kc block or
// several. C(0, 0) of the k = 1 products is 1e-30 * -1e-20, an FMA chain
// that underflows to -0; like 0 + (-0) it must come out +0. k = 0 and
// alpha = 0 leave zeros.
TEST(GemmTest, BetaZeroOverwritesGarbage) {
  GemmConfigGuard guard;
  SetGemmParallelMinFlops(1);
  SetGemmOversubscribe(true);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Rng rng(3);
  struct Shape {
    size_t m, k, n;
  };
  const Shape shapes[] = {{20, 1, 70},  {1, 40, 70},  {20, 40, 70},
                          {40, 40, 70}, {7, 601, 83}, {40, 601, 83},
                          {20, 0, 70}};
  for (const GemmBlocking blk :
       {GemmBlocking{0, 0, 0}, GemmBlocking{12, 16, 32}}) {
    SetGemmBlockSizes(blk.mc, blk.kc, blk.nc);
    for (const size_t threads : {1, 4}) {
      SetGemmThreads(threads);
      for (const Shape& s : shapes) {
        Matrix a = Matrix::RandomGaussian(s.m, s.k, rng);
        Matrix b = Matrix::RandomGaussian(s.k, s.n, rng);
        if (s.k == 1) {
          a(0, 0) = 1e-30f;
          b(0, 0) = -1e-20f;
        }
        const Matrix at = a.Transposed();
        const Matrix bt = b.Transposed();
        for (const float alpha : {1.0f, 0.0f}) {
          for (int op = 0; op < 3; ++op) {
            SCOPED_TRACE(testing::Message()
                         << "m=" << s.m << " k=" << s.k << " n=" << s.n
                         << " alpha=" << alpha << " op=" << op
                         << " threads=" << threads << " kc=" << blk.kc);
            auto product = [&](Matrix* c, float beta) {
              if (op == 0) Gemm(a, b, c, alpha, beta);
              if (op == 1) GemmTransA(at, b, c, alpha, beta);
              if (op == 2) GemmTransB(a, bt, c, alpha, beta);
            };
            Matrix got = Matrix::Filled(s.m, s.n, nan);
            product(&got, 0.0f);
            Matrix want(s.m, s.n);
            product(&want, 1.0f);
            ASSERT_EQ(std::memcmp(got.data(), want.data(),
                                  got.size() * sizeof(float)),
                      0);
            if (s.k == 1 && alpha == 1.0f) {
              EXPECT_EQ(got(0, 0), 0.0f);
              EXPECT_FALSE(std::signbit(got(0, 0)));
            }
            if (s.k == 0 || alpha == 0.0f) {
              for (size_t i = 0; i < got.size(); ++i) {
                ASSERT_EQ(got.data()[i], 0.0f);
              }
            }
          }
        }
      }
    }
  }
}

TEST(VecMatTest, MatchesGemmRow) {
  Rng rng(4);
  Matrix w = Matrix::RandomGaussian(10, 6, rng);
  Matrix x = Matrix::RandomGaussian(1, 10, rng);
  std::vector<float> bias(6);
  for (auto& v : bias) v = rng.NextGaussian();
  std::vector<float> y(6);
  VecMat(x.Row(0), w, bias, y);
  Matrix expected = NaiveMatmul(x, w);
  for (size_t j = 0; j < 6; ++j) {
    EXPECT_NEAR(y[j], expected(0, j) + bias[j], 1e-4f);
  }
}

TEST(VecMatTest, EmptyBiasMeansZero) {
  Rng rng(5);
  Matrix w = Matrix::RandomGaussian(4, 3, rng);
  std::vector<float> x{1, 2, 3, 4};
  std::vector<float> y(3);
  VecMat(x, w, {}, y);
  Matrix xm = std::move(Matrix::FromVector(1, 4, x)).value();
  Matrix expected = NaiveMatmul(xm, w);
  for (size_t j = 0; j < 3; ++j) EXPECT_NEAR(y[j], expected(0, j), 1e-4f);
}

TEST(AddRowVectorTest, BroadcastsOverRows) {
  Matrix m = Matrix::Filled(3, 2, 1.0f);
  std::vector<float> v{10.0f, 20.0f};
  AddRowVector(&m, v);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(m(i, 0), 11.0f);
    EXPECT_EQ(m(i, 1), 21.0f);
  }
}

TEST(HadamardTest, ElementwiseProduct) {
  auto a = std::move(Matrix::FromVector(2, 2, {1, 2, 3, 4})).value();
  auto b = std::move(Matrix::FromVector(2, 2, {5, 6, 7, 8})).value();
  HadamardInPlace(&a, b);
  EXPECT_EQ(a(0, 0), 5.0f);
  EXPECT_EQ(a(0, 1), 12.0f);
  EXPECT_EQ(a(1, 0), 21.0f);
  EXPECT_EQ(a(1, 1), 32.0f);
}

TEST(AxpyTest, AddsScaled) {
  Matrix x = Matrix::Filled(2, 2, 3.0f);
  Matrix y = Matrix::Filled(2, 2, 1.0f);
  Axpy(-2.0f, x, &y);
  for (size_t i = 0; i < y.size(); ++i) EXPECT_EQ(y.data()[i], -5.0f);
}

TEST(ScaleTest, MultipliesInPlace) {
  Matrix m = Matrix::Filled(2, 3, 4.0f);
  Scale(&m, 0.25f);
  for (size_t i = 0; i < m.size(); ++i) EXPECT_EQ(m.data()[i], 1.0f);
}

TEST(ColumnSumsTest, SumsEachColumn) {
  auto m = std::move(Matrix::FromVector(3, 2, {1, 10, 2, 20, 3, 30})).value();
  std::vector<float> sums(2);
  ColumnSums(m, sums);
  EXPECT_EQ(sums[0], 6.0f);
  EXPECT_EQ(sums[1], 60.0f);
}

// --- Sparse/active-set kernels: each must agree with its dense analogue ---

TEST(VecMatColsTest, MatchesDenseOnActiveColumns) {
  Rng rng(6);
  Matrix w = Matrix::RandomGaussian(12, 8, rng);
  std::vector<float> x(12), bias(8), dense(8), sparse(8, -77.0f);
  for (auto& v : x) v = rng.NextGaussian();
  for (auto& v : bias) v = rng.NextGaussian();
  // Zero out some inputs: the support skips them, the dense product adds 0.
  x[2] = x[5] = x[9] = 0.0f;
  VecMat(x, w, bias, dense);
  std::vector<uint32_t> support;
  for (uint32_t i = 0; i < 12; ++i) {
    if (x[i] != 0.0f) support.push_back(i);
  }
  const std::vector<uint32_t> active{6, 1, 3};
  VecMatCols(x, support, w, bias, active, sparse);
  for (uint32_t j : active) EXPECT_NEAR(sparse[j], dense[j], 1e-4f);
  // Untouched entries keep their previous value.
  EXPECT_EQ(sparse[0], -77.0f);
  EXPECT_EQ(sparse[7], -77.0f);
}

}  // namespace
}  // namespace sampnn
