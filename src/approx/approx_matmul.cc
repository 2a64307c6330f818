#include "src/approx/approx_matmul.h"

#include <cmath>

namespace sampnn {

StatusOr<double> RelativeFrobeniusError(const Matrix& exact,
                                        const Matrix& estimate) {
  if (exact.rows() != estimate.rows() || exact.cols() != estimate.cols()) {
    return Status::InvalidArgument("RelativeFrobeniusError: shape mismatch");
  }
  double num = 0.0, den = 0.0;
  const float* ed = exact.data();
  const float* sd = estimate.data();
  for (size_t i = 0; i < exact.size(); ++i) {
    const double d = static_cast<double>(ed[i]) - sd[i];
    num += d * d;
    den += static_cast<double>(ed[i]) * ed[i];
  }
  if (den == 0.0) return num == 0.0 ? 0.0 : INFINITY;
  return std::sqrt(num / den);
}

}  // namespace sampnn
