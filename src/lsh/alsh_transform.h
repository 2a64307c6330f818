// The asymmetric transformations P and Q of Shrivastava & Li (paper §5.2,
// Eq. 2) that reduce maximum inner-product search to near-neighbor search:
//
//   P(w) = [w * s ; ||sw||^2 ; ||sw||^4 ; ... ; ||sw||^{2^m}]
//   Q(a) = [a / ||a|| ; 1/2 ; ... ; 1/2]            (m copies)
//
// where s scales the data so every ||s*w|| <= U < 1 (Eq. 3 then holds:
// argmax_w <w, a> = argmin_w ||Q(a) - P(w)||).

#pragma once

#include <span>
#include <vector>

#include "src/tensor/matrix.h"
#include "src/util/status.h"

namespace sampnn {

/// Options for the ALSH transform.
struct AlshTransformOptions {
  size_t m = 3;     ///< number of padding terms (paper default §8.4)
  float U = 0.83f;  ///< target max norm after scaling (Shrivastava & Li)
};

/// \brief Stateless-per-call P/Q transform with a fitted data scale.
class AlshTransform {
 public:
  /// Validates options (0 < U < 1, m >= 1).
  static StatusOr<AlshTransform> Create(const AlshTransformOptions& options);

  /// Computes the scale s = U / max_j ||W_{*j}|| from the columns of `w`
  /// (each column is one data vector, matching the paper's use of weight
  /// columns as the MIPS database). A zero matrix gets scale 1. Reads `w`
  /// row by row; each column's norm is still summed in double precision
  /// over ascending rows.
  void FitScaleFromColumns(const Matrix& w);

  /// Sets the scale directly (used when the caller tracks norms itself).
  void SetScale(float scale);
  float scale() const { return scale_; }

  /// Transformed dimension: dim + m.
  size_t TransformedDim(size_t dim) const { return dim + options_.m; }

  /// P transform of columns [begin, end) of `w` (dim = w.rows()): row c of
  /// `out` ((end - begin) x (dim + m), row-major) receives P(W_{*, begin+c}).
  /// Reads `w` row by row, a blocked transpose; each column's norm is
  /// summed in double precision over ascending rows.
  void TransformColumns(const Matrix& w, size_t begin, size_t end,
                        std::span<float> out) const;

  /// Q transform of a query vector into `out` (size dim + m). The query is
  /// normalized to unit length; a zero query is passed through with zero
  /// padding replaced by 1/2 (it collides arbitrarily, as in the reference
  /// implementation).
  void TransformQuery(std::span<const float> a, std::span<float> out) const;

  const AlshTransformOptions& options() const { return options_; }

 private:
  explicit AlshTransform(const AlshTransformOptions& options)
      : options_(options) {}

  AlshTransformOptions options_;
  float scale_ = 1.0f;
};

}  // namespace sampnn
