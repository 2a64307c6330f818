// Bitwise conformance of the sampled products (Adelman's three layouts and
// Drineas's estimator, all on SampledOuterProducts) against the loops they
// replaced (tests/approx/sampled_product_seed_reference.h): the same output
// bits and the same RNG state after every call, on the AVX2 and portable
// paths, serial and on the kernel pool at 1, 2 and 4 workers.

#include <cstring>
#include <limits>
#include <optional>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "src/approx/adelman.h"
#include "src/approx/drineas.h"
#include "src/tensor/kernel_config.h"
#include "src/tensor/kernels.h"
#include "tests/approx/sampled_product_seed_reference.h"
#include "tests/core/test_util.h"

namespace sampnn {
namespace {

namespace ref = seed_reference;
using testing_util::DeterministicKernelsScope;

enum class Product { kMatmul, kTransA, kTransB, kDrineas };

struct Case {
  const char* name;
  Product product;
  size_t a_rows, a_cols, b_rows, b_cols;
  size_t k;           // expected samples (Adelman) or draws (Drineas)
  double zero_frac;   // share of A's entries set to zero
  bool specials;      // Inf, NaN, subnormal and -0 entries in A and B
};

void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

// A and B for one case: Gaussian entries, a share of A zeroed (the
// ReLU-sparse factors), and optionally a sprinkling of special values.
void MakeOperands(const Case& c, Matrix* a, Matrix* b) {
  Rng rng(c.a_rows * 7919 + c.a_cols * 31 + c.b_cols + c.k);
  *a = Matrix::RandomGaussian(c.a_rows, c.a_cols, rng);
  *b = Matrix::RandomGaussian(c.b_rows, c.b_cols, rng);
  for (size_t i = 0; i < a->size(); ++i) {
    if (rng.NextDouble() < c.zero_frac) a->data()[i] = 0.0f;
  }
  if (!c.specials) return;
  // An all-zero A keeps its zeros; its specials go to B alone.
  const bool a_too = c.zero_frac < 1.0;
  const float specials[] = {std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::denorm_min(),
                            -1e-40f, -0.0f};
  for (Matrix* m : {a, b}) {
    if (m == a && !a_too) continue;
    for (const float s : specials) {
      for (int i = 0; i < 3; ++i) {
        m->data()[rng.NextBounded(m->size())] = s;
      }
    }
  }
}

Status RunProduct(Product p, const Matrix& a, const Matrix& b, size_t k,
                  Rng& rng, Matrix* out) {
  switch (p) {
    case Product::kMatmul: return AdelmanApproxMatmul(a, b, k, rng, out);
    case Product::kTransA: return AdelmanApproxGemmTransA(a, b, k, rng, out);
    case Product::kTransB: return AdelmanApproxGemmTransB(a, b, k, rng, out);
    case Product::kDrineas: return DrineasApproxMatmul(a, b, k, rng, out);
  }
  return Status::Internal("unreachable");
}

void RunReference(Product p, const Matrix& a, const Matrix& b, size_t k,
                  Rng& rng, Matrix* out) {
  switch (p) {
    case Product::kMatmul:
      ref::AdelmanApproxMatmul(a, b, k, rng, out);
      return;
    case Product::kTransA:
      ref::AdelmanApproxGemmTransA(a, b, k, rng, out);
      return;
    case Product::kTransB:
      ref::AdelmanApproxGemmTransB(a, b, k, rng, out);
      return;
    case Product::kDrineas:
      ASSERT_TRUE(ref::DrineasApproxMatmul(a, b, k, rng, out).ok());
      return;
  }
}

// Kernel configurations every case runs under.
struct Mode {
  const char* name;
  bool deterministic;
  size_t workers;  // 0 = the process defaults
};
constexpr Mode kModes[] = {{"deterministic", true, 0},
                           {"default", false, 0},
                           {"pool x1", false, 1},
                           {"pool x2", false, 2},
                           {"pool x4", false, 4}};

class SampledProductSeedTest : public ::testing::TestWithParam<Case> {
 protected:
  void TearDown() override {
    SetGemmThreads(0);
    SetGemmParallelMinFlops(0);
    SetGemmOversubscribe(false);
  }
};

TEST_P(SampledProductSeedTest, MatchesSeedLoopsBitForBit) {
  const Case& c = GetParam();
  Matrix a, b;
  MakeOperands(c, &a, &b);
  for (const Mode& mode : kModes) {
    SCOPED_TRACE(mode.name);
    std::optional<DeterministicKernelsScope> deterministic;
    if (mode.deterministic) deterministic.emplace();
    if (mode.workers != 0) {
      // Every product with more than one task goes to the pool,
      // oversubscribed on small hosts.
      SetGemmParallelMinFlops(1);
      SetGemmOversubscribe(true);
      SetGemmThreads(mode.workers);
    }
    // Three calls on one stream: each must leave the RNG where the
    // reference leaves it.
    Rng rng_got(99), rng_want(99);
    for (int call = 0; call < 3; ++call) {
      Matrix want;
      RunReference(c.product, a, b, c.k, rng_want, &want);
      // A NaN-filled output of the right shape: the product must never
      // read it.
      Matrix got = Matrix::Filled(want.rows(), want.cols(),
                                  std::numeric_limits<float>::quiet_NaN());
      ASSERT_TRUE(RunProduct(c.product, a, b, c.k, rng_got, &got).ok());
      ASSERT_EQ(got.rows(), want.rows());
      ASSERT_EQ(got.cols(), want.cols());
      for (size_t i = 0; i < got.size(); ++i) {
        uint32_t g, w;
        std::memcpy(&g, got.data() + i, sizeof(g));
        std::memcpy(&w, want.data() + i, sizeof(w));
        ASSERT_EQ(g, w) << "call " << call << ", element (" << i / got.cols()
                        << ", " << i % got.cols() << "): " << got.data()[i]
                        << " vs " << want.data()[i];
      }
      ASSERT_TRUE(rng_got.GetState() == rng_want.GetState())
          << "call " << call;
    }
    SetGemmThreads(0);
    SetGemmParallelMinFlops(0);
    SetGemmOversubscribe(false);
  }
}

// Benchmark shapes (784-1000-1000-1000-10 at batch 20 and 1) first, then
// odd shapes: N % 8 != 0, N < 8, M = 1, one sample, row and column tails
// of the task grid, ReLU-sparse and all-zero factors, special values.
INSTANTIATE_TEST_SUITE_P(
    Shapes, SampledProductSeedTest,
    ::testing::Values(
        Case{"grad_784x20x1000", Product::kTransA, 20, 784, 20, 1000, 10, 0.5,
             false},
        Case{"grad_1000x20x1000", Product::kTransA, 20, 1000, 20, 1000, 10,
             0.5, false},
        Case{"grad_1000x20x10", Product::kTransA, 20, 1000, 20, 10, 10, 0.5,
             false},
        Case{"delta_20x1000x1000", Product::kTransB, 20, 1000, 1000, 1000, 100,
             0.0, false},
        Case{"delta_1x1000x1000", Product::kTransB, 1, 1000, 1000, 1000, 100,
             0.0, false},
        Case{"forward_8x784x1000", Product::kMatmul, 8, 784, 784, 1000, 78,
             0.5, false},
        Case{"drineas_20x1000x1000", Product::kDrineas, 20, 1000, 1000, 1000,
             100, 0.0, false},
        Case{"grad_tails_301x12x270", Product::kTransA, 12, 301, 12, 270, 4,
             0.0, true},
        Case{"grad_7x9x13", Product::kTransA, 9, 7, 9, 13, 3, 0.0, false},
        Case{"grad_sparse97", Product::kTransA, 20, 300, 20, 37, 10, 0.97,
             true},
        Case{"grad_all_zero", Product::kTransA, 20, 64, 20, 21, 10, 1.0, true},
        Case{"matmul_5x37x3", Product::kMatmul, 5, 37, 37, 3, 5, 0.0, true},
        Case{"matmul_m1", Product::kMatmul, 1, 40, 40, 21, 4, 0.0, false},
        Case{"delta_3x50x50_k1", Product::kTransB, 3, 50, 50, 50, 1, 0.0,
             false},
        Case{"delta_1x50x3", Product::kTransB, 1, 50, 3, 50, 2, 0.0, true},
        Case{"delta_270x40x300", Product::kTransB, 270, 40, 300, 40, 6, 0.5,
             true},
        Case{"drineas_c1", Product::kDrineas, 3, 50, 50, 5, 1, 0.0, false},
        Case{"drineas_specials", Product::kDrineas, 6, 30, 30, 19, 12, 0.5,
             true},
        Case{"exact_k_ge_inner", Product::kTransA, 4, 9, 4, 11, 4, 0.0,
             false}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return std::string(info.param.name);
    });

// The row-major column-norm pass equals Matrix::ColNorm bit for bit,
// special values included, at every worker count.
TEST(ColumnNormsTest, EqualsColNormBitForBit) {
  Rng rng(5);
  Matrix m = Matrix::RandomGaussian(37, 600, rng);
  m(3, 7) = std::numeric_limits<float>::infinity();
  m(5, 9) = std::numeric_limits<float>::quiet_NaN();
  m(6, 11) = std::numeric_limits<float>::denorm_min();
  m(0, 599) = 3e38f;
  for (const size_t workers : {1, 4}) {
    SetGemmParallelMinFlops(1);
    SetGemmOversubscribe(true);
    SetGemmThreads(workers);
    std::vector<float> norms(m.cols());
    ColumnNorms(m, norms);
    for (size_t j = 0; j < m.cols(); ++j) {
      const float want = m.ColNorm(j);
      ASSERT_EQ(std::memcmp(&norms[j], &want, sizeof(float)), 0)
          << "column " << j << ", " << workers << " workers";
    }
  }
  SetGemmThreads(0);
  SetGemmParallelMinFlops(0);
  SetGemmOversubscribe(false);
}

}  // namespace
}  // namespace sampnn
