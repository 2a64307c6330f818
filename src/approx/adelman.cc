#include "src/approx/adelman.h"

#include <cmath>

#include "src/approx/sampling.h"
#include "src/telemetry/metrics_registry.h"
#include "src/telemetry/telemetry.h"
#include "src/tensor/kernels.h"
#include "src/util/check.h"

namespace sampnn {

namespace {

std::vector<float> ColNorms(const Matrix& m) {
  std::vector<float> norms(m.cols());
  ColumnNorms(m, norms);
  return norms;
}

}  // namespace

StatusOr<std::vector<double>> AdelmanScores(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.rows()) {
    return Status::InvalidArgument("AdelmanScores: inner dimension mismatch");
  }
  const std::vector<float> a_norms = ColNorms(a);
  std::vector<double> scores(a.cols());
  for (size_t i = 0; i < a.cols(); ++i) {
    scores[i] = static_cast<double>(a_norms[i]) * b.RowNorm(i);
  }
  return scores;
}

StatusOr<std::vector<double>> AdelmanScoresTransA(const Matrix& a,
                                                  const Matrix& b) {
  if (a.rows() != b.rows()) {
    return Status::InvalidArgument(
        "AdelmanScoresTransA: inner dimension mismatch");
  }
  std::vector<double> scores(a.rows());
  for (size_t i = 0; i < a.rows(); ++i) {
    scores[i] = static_cast<double>(a.RowNorm(i)) * b.RowNorm(i);
  }
  return scores;
}

StatusOr<std::vector<double>> AdelmanScoresTransB(const Matrix& a,
                                                  const Matrix& b) {
  if (a.cols() != b.cols()) {
    return Status::InvalidArgument(
        "AdelmanScoresTransB: inner dimension mismatch");
  }
  const std::vector<float> a_norms = ColNorms(a);
  const std::vector<float> b_norms = ColNorms(b);
  std::vector<double> scores(a.cols());
  for (size_t j = 0; j < a.cols(); ++j) {
    scores[j] = static_cast<double>(a_norms[j]) * b_norms[j];
  }
  return scores;
}

namespace {

// Shared sampling step: water-fill + Bernoulli draw + inverse-probability
// scales for the selected indices, then the sum of their scaled outer
// products into `out`. Non-finite scores (a NaN/Inf norm from a poisoned
// activation or weight) are clamped to zero first — the estimator degrades
// toward uniform sampling instead of propagating the poison into the
// probability water-fill; occurrences are counted for telemetry.
void SampleAndSum(std::vector<double>* scores, size_t k, Rng& rng,
                  const Matrix& a, Pick a_pick, const Matrix& b, Pick b_pick,
                  Matrix* out) {
  size_t nonfinite = 0;
  for (double& s : *scores) {
    if (!std::isfinite(s)) {
      s = 0.0;
      ++nonfinite;
    }
  }
  if (nonfinite > 0 && TelemetryEnabled()) {
    static Counter& c =
        MetricsRegistry::Get().GetCounter("resilience.mc_nonfinite_norms");
    c.Add(nonfinite);
  }
  const std::vector<double> probs = WaterFillProbabilities(*scores, k);
  std::vector<uint32_t> selected;
  BernoulliSample(probs, rng, &selected);
  std::vector<float> scales(selected.size());
  for (size_t s = 0; s < selected.size(); ++s) {
    const uint32_t i = selected[s];
    // BernoulliSample only emits indices with p > 0, so the inverse scale
    // is finite; the bound guards the scores/probs size contract.
    SAMPNN_DCHECK_BOUNDS(i, probs.size());
    SAMPNN_DCHECK_GT(probs[i], 0.0);
    scales[s] = static_cast<float>(1.0 / probs[i]);
  }
  if (TelemetryEnabled()) {
    // Realized (post-Bernoulli) sample count; expectation is k.
    static Histogram& h =
        MetricsRegistry::Get().GetHistogram("approx.adelman.samples");
    h.Observe(selected.size());
  }
  SampledOuterProducts(a, a_pick, b, b_pick, selected, scales, out);
}

}  // namespace

Status AdelmanApproxMatmul(const Matrix& a, const Matrix& b, size_t k,
                           Rng& rng, Matrix* out) {
  SAMPNN_CHECK(out != nullptr);
  if (a.cols() != b.rows()) {
    return Status::InvalidArgument("AdelmanApproxMatmul: dimension mismatch");
  }
  if (k == 0) return Status::InvalidArgument("AdelmanApproxMatmul: k == 0");
  const size_t m = a.rows(), n = a.cols(), p = b.cols();
  if (out->rows() != m || out->cols() != p) *out = Matrix(m, p);
  if (k >= n) {
    Gemm(a, b, out);
    return Status::OK();
  }
  SAMPNN_ASSIGN_OR_RETURN(std::vector<double> scores, AdelmanScores(a, b));
  // C[r, j] += (1/p_i) * A[r, i] * B[i, j] over selected i.
  SampleAndSum(&scores, k, rng, a, Pick::kCol, b, Pick::kRow, out);
  return Status::OK();
}

Status AdelmanApproxGemmTransA(const Matrix& a, const Matrix& b, size_t k,
                               Rng& rng, Matrix* out) {
  SAMPNN_CHECK(out != nullptr);
  if (a.rows() != b.rows()) {
    return Status::InvalidArgument(
        "AdelmanApproxGemmTransA: dimension mismatch");
  }
  if (k == 0) return Status::InvalidArgument("AdelmanApproxGemmTransA: k == 0");
  const size_t m = a.rows(), n = a.cols(), p = b.cols();
  if (out->rows() != n || out->cols() != p) *out = Matrix(n, p);
  if (k >= m) {
    GemmTransA(a, b, out);
    return Status::OK();
  }
  SAMPNN_ASSIGN_OR_RETURN(std::vector<double> scores,
                          AdelmanScoresTransA(a, b));
  // C[l, j] += (1/p_i) * A[i, l] * B[i, j] over selected i.
  SampleAndSum(&scores, k, rng, a, Pick::kRow, b, Pick::kRow, out);
  return Status::OK();
}

Status AdelmanApproxGemmTransB(const Matrix& a, const Matrix& b, size_t k,
                               Rng& rng, Matrix* out) {
  SAMPNN_CHECK(out != nullptr);
  if (a.cols() != b.cols()) {
    return Status::InvalidArgument(
        "AdelmanApproxGemmTransB: dimension mismatch");
  }
  if (k == 0) return Status::InvalidArgument("AdelmanApproxGemmTransB: k == 0");
  const size_t m = a.rows(), n = a.cols(), p = b.rows();
  if (out->rows() != m || out->cols() != p) *out = Matrix(m, p);
  if (k >= n) {
    GemmTransB(a, b, out);
    return Status::OK();
  }
  SAMPNN_ASSIGN_OR_RETURN(std::vector<double> scores,
                          AdelmanScoresTransB(a, b));
  // C[r, l] += (1/p_j) * A[r, j] * B[l, j] over selected j.
  SampleAndSum(&scores, k, rng, a, Pick::kCol, b, Pick::kCol, out);
  return Status::OK();
}

}  // namespace sampnn
