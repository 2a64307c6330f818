// Bitwise conformance of the row-major ALSH kernels against the
// column-at-a-time loops they replaced (tests/core/alsh_seed_reference.h).

#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

#include <gtest/gtest.h>

#include "src/core/alsh_trainer.h"
#include "src/lsh/hash_table.h"
#include "src/lsh/mips.h"
#include "src/lsh/srp_hash.h"
#include "src/tensor/kernels.h"
#include "tests/core/alsh_seed_reference.h"

namespace sampnn {
namespace {

namespace ref = seed_reference;

bool SameBits(std::span<const float> a, std::span<const float> b) {
  if (a.size() != b.size()) return false;
  // Empty state (SGD keeps no moments) may have null data.
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         SameBits({a.data(), a.size()}, {b.data(), b.size()});
}

std::vector<uint32_t> Iota(size_t n) {
  std::vector<uint32_t> v(n);
  std::iota(v.begin(), v.end(), 0u);
  return v;
}

// The active sets the trainer produces: a sorted probe union, the same set
// topped up out of order by the random-fill floor, and every column (the
// dense fallback).
std::vector<std::vector<uint32_t>> ActiveSets(size_t n, Rng& rng) {
  std::vector<uint32_t> probe;
  for (uint32_t j = 0; j < n; ++j) {
    if (rng.NextBounded(6) == 0) probe.push_back(j);
  }
  std::vector<uint32_t> filled = probe;
  while (filled.size() < probe.size() + 5) {
    const auto cand = static_cast<uint32_t>(rng.NextBounded(n));
    if (std::find(filled.begin(), filled.end(), cand) == filled.end()) {
      filled.push_back(cand);
    }
  }
  return {probe, filled, Iota(n)};
}

// About a third of the entries exactly zero, like a ReLU layer's output.
std::vector<float> SparseInput(size_t k, Rng& rng) {
  std::vector<float> x(k);
  for (auto& v : x) v = rng.NextBounded(3) == 0 ? 0.0f : rng.NextGaussian();
  return x;
}

std::vector<uint32_t> Support(std::span<const float> x) {
  std::vector<uint32_t> s;
  for (uint32_t i = 0; i < x.size(); ++i) {
    if (x[i] != 0.0f) s.push_back(i);
  }
  return s;
}

TEST(AlshKernelsTest, VecMatColsMatchesSeedColumnLoop) {
  Rng rng(1);
  constexpr size_t kIn = 37, kOut = 53;
  Matrix w = Matrix::RandomGaussian(kIn, kOut, rng);
  std::vector<float> bias(kOut);
  for (auto& v : bias) v = rng.NextGaussian();
  std::vector<float> dense(kIn);
  for (auto& v : dense) v = rng.NextGaussian();
  const std::vector<std::vector<float>> inputs = {
      SparseInput(kIn, rng), std::vector<float>(kIn, 0.0f), dense};
  for (const auto& x : inputs) {
    for (const auto& cols : ActiveSets(kOut, rng)) {
      std::vector<float> got(kOut, 0.0f), want(kOut, 0.0f);
      VecMatCols(x, Support(x), w, bias, cols, got);
      ref::VecMatCols(x, w, bias, cols, want);
      EXPECT_TRUE(SameBits(got, want));
    }
  }
}

class AlshUpdateTest : public ::testing::TestWithParam<const char*> {};

TEST_P(AlshUpdateTest, MatchesSeedColumnUpdates) {
  constexpr size_t kIn = 29, kOut = 41;
  constexpr float kLr = 0.01f;
  Rng rng(2);
  Layer layer(kIn, kOut, Activation::kRelu, Initializer::kHe, rng);
  Layer ref_layer = layer;
  SparseOptState state =
      std::move(SparseOptState::Create(layer, GetParam())).value();
  SparseOptState ref_state = state;
  std::vector<float> scratch;
  const auto update = [&](std::span<const float> a_prev,
                          std::span<const uint32_t> prev_support,
                          std::span<const uint32_t> cols,
                          std::span<const float> delta) {
    state.Update(&layer.weights(), layer.bias(), a_prev, prev_support, cols,
                 delta, kLr, &scratch);
    for (uint32_t j : cols) {
      ref::UpdateColumn(&ref_state, &ref_layer.weights(), ref_layer.bias(), j,
                        a_prev, prev_support, delta[j], kLr);
    }
  };
  std::vector<float> delta(kOut);
  for (int step = 0; step < 6; ++step) {
    // The previous layer's active set, zero activations included.
    const std::vector<float> a_prev = SparseInput(kIn, rng);
    std::vector<uint32_t> prev_support;
    for (uint32_t i = 0; i < kIn; ++i) {
      if (rng.NextBounded(4) != 0) prev_support.push_back(i);
    }
    for (auto& v : delta) v = 0.1f * rng.NextGaussian();
    for (const auto& cols : ActiveSets(kOut, rng)) {
      update(a_prev, prev_support, cols, delta);
    }
  }
  // A non-finite delta turns zero-activation gradients into NaN too
  // (NaN * 0); the row pass must not skip those rows.
  const std::vector<float> a_prev = SparseInput(kIn, rng);
  delta[3] = std::numeric_limits<float>::quiet_NaN();
  update(a_prev, Iota(kIn), Iota(kOut), delta);

  EXPECT_TRUE(SameBits(layer.weights(), ref_layer.weights()));
  EXPECT_TRUE(SameBits(layer.bias(), ref_layer.bias()));
  EXPECT_TRUE(SameBits(state.m_w, ref_state.m_w));
  EXPECT_TRUE(SameBits(state.v_w, ref_state.v_w));
  EXPECT_TRUE(SameBits(state.m_b, ref_state.m_b));
  EXPECT_TRUE(SameBits(state.v_b, ref_state.v_b));
  EXPECT_EQ(state.col_step, ref_state.col_step);
}

INSTANTIATE_TEST_SUITE_P(Modes, AlshUpdateTest,
                         ::testing::Values("sgd", "adagrad", "adam"));

TEST(AlshKernelsTest, FusedSrpHashMatchesPerTableLoops) {
  struct Shape {
    size_t dim, bits, tables;
  };
  // Paper shape, more lanes than one block, one lane, full-width codes.
  for (const Shape s : {Shape{787, 6, 5}, Shape{20, 6, 10}, Shape{9, 1, 1},
                        Shape{33, 30, 3}}) {
    Rng fused_rng(s.dim), ref_rng(s.dim);
    const SrpHash fused =
        std::move(SrpHash::Create(s.dim, s.bits, fused_rng, s.tables))
            .value();
    std::vector<ref::SrpTable> tables;
    for (size_t t = 0; t < s.tables; ++t) {
      tables.emplace_back(s.dim, s.bits, ref_rng);
    }
    EXPECT_EQ(fused_rng.NextU64(), ref_rng.NextU64());  // same draws
    Rng data(s.bits);
    std::vector<uint32_t> codes(s.tables);
    for (int q = 0; q < 20; ++q) {
      const std::vector<float> x = SparseInput(s.dim, data);
      fused.HashAll(x, codes);
      for (size_t t = 0; t < s.tables; ++t) {
        EXPECT_EQ(codes[t], tables[t].Hash(x)) << "table " << t;
      }
      EXPECT_EQ(fused.Hash(x), tables[0].Hash(x));
    }
  }
}

TEST(AlshKernelsTest, ScaleFitAndTransformMatchSeedColumnLoops) {
  Rng rng(4);
  constexpr size_t kDim = 23, kItems = 70, kM = 3;
  Matrix w = Matrix::RandomGaussian(kDim, kItems, rng);
  for (size_t i = 0; i < kDim; ++i) w(i, 5) = 0.0f;  // a zero column
  AlshTransform t = std::move(AlshTransform::Create({})).value();
  t.FitScaleFromColumns(w);
  EXPECT_EQ(t.scale(), ref::FitScale(w, t.options().U));
  const size_t tdim = t.TransformedDim(kDim);
  std::vector<float> col(kDim), want(tdim);
  for (const auto& [begin, end] : {std::pair<size_t, size_t>{0, kItems},
                                  std::pair<size_t, size_t>{17, 30}}) {
    std::vector<float> got((end - begin) * tdim);
    t.TransformColumns(w, begin, end, got);
    for (size_t j = begin; j < end; ++j) {
      for (size_t i = 0; i < kDim; ++i) col[i] = w(i, j);
      ref::TransformData(col, t.scale(), kM, want);
      EXPECT_TRUE(SameBits(std::span<const float>(got).subspan(
                               (j - begin) * tdim, tdim),
                           want))
          << "column " << j;
    }
  }
}

class AlshBuildTest : public ::testing::TestWithParam<AlshIndexOptions> {};

TEST_P(AlshBuildTest, BucketsMatchSeedBuild) {
  const AlshIndexOptions& options = GetParam();
  Rng rng(5);
  // 150 columns: three transform blocks, the last one partial.
  const Matrix w = Matrix::RandomGaussian(19, 150, rng);
  AlshIndex index = std::move(AlshIndex::Create(19, options, 77)).value();
  index.Build(w);
  const auto want = ref::BuildBuckets(w, options, 77);
  ASSERT_EQ(want.size(), options.tables);
  for (size_t t = 0; t < want.size(); ++t) {
    for (uint32_t code = 0; code < want[t].size(); ++code) {
      EXPECT_EQ(index.bucket(t, code), want[t][code])
          << "table " << t << " bucket " << code;
    }
  }
}

AlshIndexOptions WithFamily(LshFamily family, size_t bits, size_t tables,
                            size_t cap) {
  AlshIndexOptions o;
  o.family = family;
  o.bits = bits;
  o.tables = tables;
  o.max_bucket_size = cap;
  return o;
}

INSTANTIATE_TEST_SUITE_P(
    Families, AlshBuildTest,
    ::testing::Values(WithFamily(LshFamily::kSrp, 6, 5, 0),   // paper K, L
                      WithFamily(LshFamily::kSrp, 6, 10, 0),  // 60 lanes
                      WithFamily(LshFamily::kSrp, 2, 5, 5),   // reservoir
                      WithFamily(LshFamily::kWta, 9, 5, 0),
                      WithFamily(LshFamily::kWta, 6, 4, 3)));

TEST(AlshKernelsTest, MipsInnerProductsMatchSeedColumnDot) {
  Rng rng(6);
  const Matrix db = Matrix::RandomGaussian(31, 90, rng);
  const std::vector<float> q = SparseInput(31, rng);
  for (const MipsResult& r : ExactMips(db, q, 90)) {
    EXPECT_EQ(r.inner_product, ref::ColumnDot(db, r.id, q)) << r.id;
  }
  const AlshMips mips = std::move(AlshMips::Create(db, {}, 8)).value();
  const auto approx = mips.Query(q, 90);
  EXPECT_FALSE(approx.empty());
  for (const MipsResult& r : approx) {
    EXPECT_EQ(r.inner_product, ref::ColumnDot(db, r.id, q)) << r.id;
  }
}

}  // namespace
}  // namespace sampnn
