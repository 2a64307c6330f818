// Reference copies of the column-at-a-time ALSH loops that the row-major
// kernels replaced: the sparse forward, the per-column sparse optimizer
// update, the per-table SRP hash, the P transform and scale fit, and the
// index build. Deliberately naive — tests require the production kernels
// to reproduce them bit for bit.

#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <variant>
#include <vector>

#include "src/core/alsh_trainer.h"
#include "src/lsh/hash_table.h"
#include "src/lsh/wta_hash.h"
#include "src/tensor/matrix.h"
#include "src/util/rng.h"

namespace sampnn::seed_reference {

/// y[j] = bias[j] + sum over every row i of x[i] * W(i, j), one column at a
/// time.
inline void VecMatCols(std::span<const float> x, const Matrix& w,
                       std::span<const float> bias,
                       std::span<const uint32_t> cols, std::span<float> y) {
  const size_t k = w.rows(), n = w.cols();
  const float* wd = w.data();
  for (uint32_t j : cols) {
    float acc = bias.empty() ? 0.0f : bias[j];
    const float* col = wd + j;
    for (size_t i = 0; i < k; ++i) acc += x[i] * col[i * n];
    y[j] = acc;
  }
}

/// The full sparse update of column j (SparseOptState's three modes).
inline void UpdateColumn(SparseOptState* s, Matrix* w, std::span<float> bias,
                         size_t j, std::span<const float> a_prev,
                         std::span<const uint32_t> prev_support, float delta_j,
                         float lr) {
  using Mode = SparseOptState::Mode;
  const size_t n = w->cols();
  float* wd = w->data();
  switch (s->mode) {
    case Mode::kSgd: {
      for (uint32_t i : prev_support) {
        const float g = delta_j * a_prev[i];
        if (g != 0.0f) wd[i * n + j] -= lr * g;
      }
      bias[j] -= lr * delta_j;
      return;
    }
    case Mode::kAdagrad: {
      float* vd = s->v_w.data();
      for (uint32_t i : prev_support) {
        const float g = delta_j * a_prev[i];
        if (g == 0.0f) continue;
        const size_t idx = i * n + j;
        vd[idx] += g * g;
        wd[idx] -= lr * g / (std::sqrt(vd[idx]) + 1e-10f);
      }
      const float gb = delta_j;
      s->v_b[j] += gb * gb;
      bias[j] -= lr * gb / (std::sqrt(s->v_b[j]) + 1e-10f);
      return;
    }
    case Mode::kAdam: {
      constexpr float kBeta1 = 0.9f, kBeta2 = 0.999f, kEps = 1e-8f;
      const uint32_t t = ++s->col_step[j];
      const float bc1 = 1.0f - std::pow(kBeta1, static_cast<float>(t));
      const float bc2 = 1.0f - std::pow(kBeta2, static_cast<float>(t));
      const float step_size = lr * std::sqrt(bc2) / bc1;
      float* vd = s->v_w.data();
      float* md = s->m_w.data();
      for (uint32_t i : prev_support) {
        const float g = delta_j * a_prev[i];
        if (g == 0.0f) continue;
        const size_t idx = i * n + j;
        md[idx] = kBeta1 * md[idx] + (1.0f - kBeta1) * g;
        vd[idx] = kBeta2 * vd[idx] + (1.0f - kBeta2) * g * g;
        wd[idx] -= step_size * md[idx] / (std::sqrt(vd[idx]) + kEps);
      }
      const float gb = delta_j;
      s->m_b[j] = kBeta1 * s->m_b[j] + (1.0f - kBeta1) * gb;
      s->v_b[j] = kBeta2 * s->v_b[j] + (1.0f - kBeta2) * gb * gb;
      bias[j] -= step_size * s->m_b[j] / (std::sqrt(s->v_b[j]) + kEps);
      return;
    }
  }
}

/// One K-bit SRP meta hash: K planes of `dim` Gaussians, row-major.
struct SrpTable {
  size_t dim = 0, bits = 0;
  std::vector<float> planes;

  SrpTable(size_t d, size_t k, Rng& rng) : dim(d), bits(k), planes(k * d) {
    for (auto& v : planes) v = rng.NextGaussian();
  }

  uint32_t Hash(std::span<const float> x) const {
    uint32_t code = 0;
    const float* p = planes.data();
    for (size_t b = 0; b < bits; ++b, p += dim) {
      float dot = 0.0f;
      for (size_t i = 0; i < dim; ++i) dot += p[i] * x[i];
      code = (code << 1) | (dot >= 0.0f ? 1u : 0u);
    }
    return code;
  }
};

/// Max column norm (Matrix::ColNorm per column) -> U / max.
inline float FitScale(const Matrix& w, float U) {
  float max_norm = 0.0f;
  for (size_t j = 0; j < w.cols(); ++j) {
    max_norm = std::max(max_norm, w.ColNorm(j));
  }
  return (max_norm > 0.0f) ? U / max_norm : 1.0f;
}

/// P transform of one gathered column.
inline void TransformData(std::span<const float> w, float scale, size_t m,
                          std::span<float> out) {
  double norm_sq = 0.0;
  for (size_t i = 0; i < w.size(); ++i) {
    const float v = scale * w[i];
    out[i] = v;
    norm_sq += static_cast<double>(v) * v;
  }
  double power = norm_sq;
  for (size_t i = 0; i < m; ++i) {
    out[w.size() + i] = static_cast<float>(power);
    power *= power;
  }
}

/// Bucket contents of AlshIndex::Create(w.rows(), options, seed) followed
/// by one Build(w), computed with the per-table, per-column seed loops:
/// buckets[t][code] = item ids in insertion order.
inline std::vector<std::vector<std::vector<uint32_t>>> BuildBuckets(
    const Matrix& w, const AlshIndexOptions& options, uint64_t seed) {
  const size_t dim = w.rows(), tdim = dim + options.transform.m;
  Rng rng(seed);
  std::vector<std::variant<SrpTable, WtaHash>> hashes;
  uint32_t num_buckets = 0;
  for (size_t t = 0; t < options.tables; ++t) {
    if (options.family == LshFamily::kSrp) {
      hashes.emplace_back(SrpTable(tdim, options.bits, rng));
      num_buckets = 1u << options.bits;
    } else {
      const size_t bits_per = std::bit_width(options.wta_window) - 1;
      WtaHash h = std::move(WtaHash::Create(tdim, options.bits / bits_per,
                                            options.wta_window, rng))
                      .value();
      num_buckets = h.num_buckets();
      hashes.emplace_back(std::move(h));
    }
  }
  Rng reservoir(rng.NextU64());
  const float scale = FitScale(w, options.transform.U);
  std::vector<std::vector<std::vector<uint32_t>>> buckets(
      options.tables, std::vector<std::vector<uint32_t>>(num_buckets));
  std::vector<float> col(dim), transformed(tdim);
  for (size_t j = 0; j < w.cols(); ++j) {
    for (size_t i = 0; i < dim; ++i) col[i] = w(i, j);
    TransformData(col, scale, options.transform.m, transformed);
    for (size_t t = 0; t < options.tables; ++t) {
      const uint32_t code = std::visit(
          [&](const auto& h) { return h.Hash(transformed); }, hashes[t]);
      auto& bucket = buckets[t][code];
      if (options.max_bucket_size > 0 &&
          bucket.size() >= options.max_bucket_size) {
        const uint64_t slot = reservoir.NextBounded(bucket.size() + 1);
        if (slot < bucket.size()) bucket[slot] = static_cast<uint32_t>(j);
      } else {
        bucket.push_back(static_cast<uint32_t>(j));
      }
    }
  }
  return buckets;
}

/// <x, M_{*col}>, one column at a time over every row.
inline float ColumnDot(const Matrix& m, size_t col, std::span<const float> x) {
  const size_t n = m.cols();
  const float* d = m.data() + col;
  float acc = 0.0f;
  for (size_t i = 0; i < m.rows(); ++i) acc += x[i] * d[i * n];
  return acc;
}

}  // namespace sampnn::seed_reference
