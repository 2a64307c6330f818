#include "src/approx/drineas.h"

#include "src/approx/sampling.h"
#include "src/telemetry/metrics_registry.h"
#include "src/telemetry/telemetry.h"
#include "src/tensor/kernels.h"
#include "src/util/check.h"

namespace sampnn {

StatusOr<std::vector<double>> DrineasProbabilities(const Matrix& a,
                                                   const Matrix& b) {
  if (a.cols() != b.rows()) {
    return Status::InvalidArgument(
        "DrineasProbabilities: inner dimension mismatch: " +
        std::to_string(a.cols()) + " vs " + std::to_string(b.rows()));
  }
  std::vector<float> a_norms(a.cols());
  ColumnNorms(a, a_norms);
  std::vector<double> weights(a.cols());
  for (size_t i = 0; i < a.cols(); ++i) {
    weights[i] = static_cast<double>(a_norms[i]) * b.RowNorm(i);
  }
  return NormalizeWeights(weights);
}

Status DrineasApproxMatmul(const Matrix& a, const Matrix& b,
                           std::span<const double> probs, size_t c, Rng& rng,
                           Matrix* out) {
  SAMPNN_CHECK(out != nullptr);
  if (a.cols() != b.rows()) {
    return Status::InvalidArgument("DrineasApproxMatmul: dimension mismatch");
  }
  if (probs.size() != a.cols()) {
    return Status::InvalidArgument("DrineasApproxMatmul: probs size mismatch");
  }
  if (c == 0) {
    return Status::InvalidArgument("DrineasApproxMatmul: c must be > 0");
  }
  SAMPNN_ASSIGN_OR_RETURN(AliasTable table, AliasTable::Create(probs));
  if (TelemetryEnabled()) {
    static Histogram& h =
        MetricsRegistry::Get().GetHistogram("approx.drineas.samples");
    h.Observe(c);
  }

  const size_t m = a.rows(), n = b.cols();
  if (out->rows() != m || out->cols() != n) *out = Matrix(m, n);
  // All c draws first (the product consumes no randomness), then one
  // scaled column-row term per draw, duplicates included, in draw order.
  std::vector<uint32_t> drawn;
  std::vector<float> scales;
  drawn.reserve(c);
  scales.reserve(c);
  for (size_t s = 0; s < c; ++s) {
    const uint32_t i = table.Sample(rng);
    SAMPNN_DCHECK_BOUNDS(i, a.cols());
    const double pi = table.Probability(i);
    if (pi <= 0.0) continue;  // unreachable under a valid alias table
    drawn.push_back(i);
    scales.push_back(static_cast<float>(1.0 / (static_cast<double>(c) * pi)));
  }
  SampledOuterProducts(a, Pick::kCol, b, Pick::kRow, drawn, scales, out);
  return Status::OK();
}

Status DrineasApproxMatmul(const Matrix& a, const Matrix& b, size_t c,
                           Rng& rng, Matrix* out) {
  SAMPNN_ASSIGN_OR_RETURN(std::vector<double> probs,
                          DrineasProbabilities(a, b));
  return DrineasApproxMatmul(a, b, probs, c, rng, out);
}

}  // namespace sampnn
