#include "src/lsh/alsh_transform.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/util/check.h"

namespace sampnn {

StatusOr<AlshTransform> AlshTransform::Create(
    const AlshTransformOptions& options) {
  if (options.m == 0) {
    return Status::InvalidArgument("AlshTransform: m must be >= 1");
  }
  if (!(options.U > 0.0f && options.U < 1.0f)) {
    return Status::InvalidArgument("AlshTransform: U must be in (0, 1)");
  }
  return AlshTransform(options);
}

void AlshTransform::FitScaleFromColumns(const Matrix& w) {
  const size_t n = w.cols();
  std::vector<double> norm_sq(n, 0.0);
  for (size_t i = 0; i < w.rows(); ++i) {
    const float* row = w.data() + i * n;
    for (size_t j = 0; j < n; ++j) {
      norm_sq[j] += static_cast<double>(row[j]) * row[j];
    }
  }
  float max_norm = 0.0f;
  for (double s : norm_sq) {
    max_norm = std::max(max_norm, static_cast<float>(std::sqrt(s)));
  }
  scale_ = (max_norm > 0.0f) ? options_.U / max_norm : 1.0f;
}

void AlshTransform::SetScale(float scale) {
  SAMPNN_CHECK_GT(scale, 0.0f);
  scale_ = scale;
}

void AlshTransform::TransformColumns(const Matrix& w, size_t begin,
                                     size_t end, std::span<float> out) const {
  const size_t dim = w.rows(), n = w.cols();
  const size_t tdim = TransformedDim(dim);
  SAMPNN_CHECK_LE(begin, end);
  SAMPNN_CHECK_LE(end, n);
  const size_t count = end - begin;
  SAMPNN_CHECK_EQ(out.size(), count * tdim);
  std::vector<double> norm_sq(count, 0.0);
  for (size_t i = 0; i < dim; ++i) {
    const float* row = w.data() + i * n + begin;
    for (size_t c = 0; c < count; ++c) {
      const float v = scale_ * row[c];
      out[c * tdim + i] = v;
      norm_sq[c] += static_cast<double>(v) * v;
    }
  }
  for (size_t c = 0; c < count; ++c) {
    // Padding term i is ||sw||^{2^{i+1}}: square norm_sq repeatedly.
    double power = norm_sq[c];  // ||sw||^2
    for (size_t i = 0; i < options_.m; ++i) {
      out[c * tdim + dim + i] = static_cast<float>(power);
      power *= power;
    }
  }
}

void AlshTransform::TransformQuery(std::span<const float> a,
                                   std::span<float> out) const {
  SAMPNN_CHECK_EQ(out.size(), a.size() + options_.m);
  double norm_sq = 0.0;
  for (float v : a) norm_sq += static_cast<double>(v) * v;
  const float inv_norm =
      norm_sq > 0.0 ? 1.0f / static_cast<float>(std::sqrt(norm_sq)) : 1.0f;
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] * inv_norm;
  for (size_t i = 0; i < options_.m; ++i) out[a.size() + i] = 0.5f;
}

}  // namespace sampnn
