// Accuracy measure for the sampled matrix-product estimators (Drineas,
// Adelman): the relative Frobenius error of an estimate against the exact
// product, for tests and benches.

#pragma once

#include "src/tensor/matrix.h"
#include "src/util/status.h"

namespace sampnn {

/// Relative Frobenius error ||AB - est||_F / ||AB||_F, for benches/tests.
StatusOr<double> RelativeFrobeniusError(const Matrix& exact,
                                        const Matrix& estimate);

}  // namespace sampnn
