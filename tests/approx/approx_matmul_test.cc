#include "src/approx/approx_matmul.h"

#include <cmath>

#include <gtest/gtest.h>

namespace sampnn {
namespace {

TEST(RelativeFrobeniusErrorTest, ZeroForEqual) {
  Matrix a = Matrix::Filled(2, 2, 3.0f);
  auto err = RelativeFrobeniusError(a, a);
  ASSERT_TRUE(err.ok());
  EXPECT_DOUBLE_EQ(err.value(), 0.0);
}

TEST(RelativeFrobeniusErrorTest, KnownValue) {
  Matrix exact = Matrix::Filled(1, 1, 2.0f);
  Matrix est = Matrix::Filled(1, 1, 1.0f);
  auto err = RelativeFrobeniusError(exact, est);
  ASSERT_TRUE(err.ok());
  EXPECT_NEAR(err.value(), 0.5, 1e-9);
}

TEST(RelativeFrobeniusErrorTest, ShapeMismatchErrors) {
  Matrix a(2, 2), b(2, 3);
  EXPECT_TRUE(RelativeFrobeniusError(a, b).status().IsInvalidArgument());
}

TEST(RelativeFrobeniusErrorTest, ZeroExactHandled) {
  Matrix zero(2, 2);
  auto same = RelativeFrobeniusError(zero, zero);
  ASSERT_TRUE(same.ok());
  EXPECT_EQ(same.value(), 0.0);
  Matrix nonzero = Matrix::Filled(2, 2, 1.0f);
  auto inf = RelativeFrobeniusError(zero, nonzero);
  ASSERT_TRUE(inf.ok());
  EXPECT_TRUE(std::isinf(inf.value()));
}

}  // namespace
}  // namespace sampnn
