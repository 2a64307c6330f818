// Reference copies of the sampled-product loops that SampledOuterProducts
// (src/tensor/kernels.h) replaced: Adelman's three layouts and Drineas's
// estimator, with their column-at-a-time score passes. Deliberately
// naive — each zeroes C and adds one scaled rank-1 term per sample over
// all of C — and the production functions must reproduce them bit for bit,
// RNG stream included.

#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "src/approx/sampling.h"
#include "src/tensor/kernels.h"
#include "src/tensor/matrix.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace sampnn::seed_reference {

inline std::vector<double> AdelmanScores(const Matrix& a, const Matrix& b) {
  std::vector<double> scores(a.cols());
  for (size_t i = 0; i < a.cols(); ++i) {
    scores[i] = static_cast<double>(a.ColNorm(i)) * b.RowNorm(i);
  }
  return scores;
}

inline std::vector<double> AdelmanScoresTransA(const Matrix& a,
                                               const Matrix& b) {
  std::vector<double> scores(a.rows());
  for (size_t i = 0; i < a.rows(); ++i) {
    scores[i] = static_cast<double>(a.RowNorm(i)) * b.RowNorm(i);
  }
  return scores;
}

inline std::vector<double> AdelmanScoresTransB(const Matrix& a,
                                               const Matrix& b) {
  std::vector<double> scores(a.cols());
  for (size_t j = 0; j < a.cols(); ++j) {
    scores[j] = static_cast<double>(a.ColNorm(j)) * b.ColNorm(j);
  }
  return scores;
}

/// Water-fill + Bernoulli draw + inverse-probability scales (telemetry
/// left out).
inline void SelectAndScale(std::vector<double>* scores, size_t k, Rng& rng,
                           std::vector<uint32_t>* selected,
                           std::vector<float>* scales) {
  for (double& s : *scores) {
    if (!std::isfinite(s)) s = 0.0;
  }
  const std::vector<double> probs = WaterFillProbabilities(*scores, k);
  BernoulliSample(probs, rng, selected);
  scales->resize(selected->size());
  for (size_t s = 0; s < selected->size(); ++s) {
    (*scales)[s] = static_cast<float>(1.0 / probs[(*selected)[s]]);
  }
}

inline void AdelmanApproxMatmul(const Matrix& a, const Matrix& b, size_t k,
                                Rng& rng, Matrix* out) {
  const size_t m = a.rows(), n = a.cols(), p = b.cols();
  if (out->rows() != m || out->cols() != p) *out = Matrix(m, p);
  if (k >= n) {
    Gemm(a, b, out);
    return;
  }
  std::vector<double> scores = seed_reference::AdelmanScores(a, b);
  std::vector<uint32_t> selected;
  std::vector<float> scales;
  seed_reference::SelectAndScale(&scores, k, rng, &selected, &scales);
  out->SetZero();
  float* od = out->data();
  const float* bd = b.data();
  for (size_t s = 0; s < selected.size(); ++s) {
    const uint32_t i = selected[s];
    const float* brow = bd + static_cast<size_t>(i) * p;
    for (size_t r = 0; r < m; ++r) {
      const float av = a(r, i) * scales[s];
      if (av == 0.0f) continue;
      float* orow = od + r * p;
      for (size_t j = 0; j < p; ++j) orow[j] += av * brow[j];
    }
  }
}

inline void AdelmanApproxGemmTransA(const Matrix& a, const Matrix& b,
                                    size_t k, Rng& rng, Matrix* out) {
  const size_t m = a.rows(), n = a.cols(), p = b.cols();
  if (out->rows() != n || out->cols() != p) *out = Matrix(n, p);
  if (k >= m) {
    GemmTransA(a, b, out);
    return;
  }
  std::vector<double> scores = seed_reference::AdelmanScoresTransA(a, b);
  std::vector<uint32_t> selected;
  std::vector<float> scales;
  seed_reference::SelectAndScale(&scores, k, rng, &selected, &scales);
  out->SetZero();
  float* od = out->data();
  for (size_t s = 0; s < selected.size(); ++s) {
    const uint32_t i = selected[s];
    auto arow = a.Row(i);
    auto brow = b.Row(i);
    for (size_t l = 0; l < n; ++l) {
      const float av = arow[l] * scales[s];
      if (av == 0.0f) continue;
      float* orow = od + l * p;
      for (size_t j = 0; j < p; ++j) orow[j] += av * brow[j];
    }
  }
}

inline void AdelmanApproxGemmTransB(const Matrix& a, const Matrix& b,
                                    size_t k, Rng& rng, Matrix* out) {
  const size_t m = a.rows(), n = a.cols(), p = b.rows();
  if (out->rows() != m || out->cols() != p) *out = Matrix(m, p);
  if (k >= n) {
    GemmTransB(a, b, out);
    return;
  }
  std::vector<double> scores = seed_reference::AdelmanScoresTransB(a, b);
  std::vector<uint32_t> selected;
  std::vector<float> scales;
  seed_reference::SelectAndScale(&scores, k, rng, &selected, &scales);
  out->SetZero();
  float* od = out->data();
  const float* bd = b.data();
  // C[r, l] += (1/p_j) * A[r, j] * B[l, j] over selected j.
  for (size_t s = 0; s < selected.size(); ++s) {
    const uint32_t j = selected[s];
    const float scale = scales[s];
    const float* acol = a.data() + j;
    const float* bcol = bd + j;
    for (size_t r = 0; r < m; ++r) {
      const float av = acol[r * n] * scale;
      if (av == 0.0f) continue;
      float* orow = od + r * p;
      for (size_t l = 0; l < p; ++l) orow[l] += av * bcol[l * n];
    }
  }
}

inline StatusOr<std::vector<double>> DrineasProbabilities(const Matrix& a,
                                                          const Matrix& b) {
  std::vector<double> weights(a.cols());
  for (size_t i = 0; i < a.cols(); ++i) {
    weights[i] = static_cast<double>(a.ColNorm(i)) * b.RowNorm(i);
  }
  return NormalizeWeights(weights);
}

inline Status DrineasApproxMatmul(const Matrix& a, const Matrix& b,
                                  std::span<const double> probs, size_t c,
                                  Rng& rng, Matrix* out) {
  SAMPNN_ASSIGN_OR_RETURN(AliasTable table, AliasTable::Create(probs));
  const size_t m = a.rows(), n = b.cols();
  if (out->rows() != m || out->cols() != n) *out = Matrix(m, n);
  out->SetZero();
  float* od = out->data();
  const float* bd = b.data();
  for (size_t s = 0; s < c; ++s) {
    const uint32_t i = table.Sample(rng);
    const double pi = table.Probability(i);
    if (pi <= 0.0) continue;  // unreachable under a valid alias table
    const float scale = static_cast<float>(1.0 / (static_cast<double>(c) * pi));
    const float* brow = bd + static_cast<size_t>(i) * n;
    for (size_t r = 0; r < m; ++r) {
      const float av = a(r, i) * scale;
      if (av == 0.0f) continue;
      float* orow = od + r * n;
      for (size_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
  return Status::OK();
}

inline Status DrineasApproxMatmul(const Matrix& a, const Matrix& b, size_t c,
                                  Rng& rng, Matrix* out) {
  SAMPNN_ASSIGN_OR_RETURN(std::vector<double> probs,
                          seed_reference::DrineasProbabilities(a, b));
  return seed_reference::DrineasApproxMatmul(a, b, probs, c, rng, out);
}

}  // namespace sampnn::seed_reference
