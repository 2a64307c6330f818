// Signed random projection (SimHash) hash functions.
//
// Each K-bit meta hash is the concatenation of K hyperplane sign bits
// (Def. 5.1's family H, instantiated for cosine similarity — the standard
// choice for ALSH after the P/Q transform).
//
// One SrpHash holds the meta hashes of all L tables of an index. The L*K
// hyperplanes are stored plane-major — row i holds coordinate i of every
// plane, padded to a multiple of kLaneBlock lanes — so one pass over x
// computes every table's code. Each lane is an independent dot product
// summed in ascending i with a separate multiply and add (no FMA): the
// order of a one-plane-at-a-time scalar loop, so codes do not depend on
// the SIMD width.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/util/rng.h"
#include "src/util/status.h"

namespace sampnn {

/// \brief `tables` independent K-bit signed-random-projection hashes over
/// R^dim, evaluated together.
class SrpHash {
 public:
  /// Lanes computed per pass over x (four 8-wide AVX2 registers).
  static constexpr size_t kLaneBlock = 32;

  /// Creates `tables` meta hashes of K = `bits` Gaussian hyperplanes over
  /// dimension `dim`. Table t's planes are drawn from `rng` after table
  /// t-1's, plane by plane. Requires 1 <= bits <= 30, dim > 0 and
  /// tables >= 1.
  static StatusOr<SrpHash> Create(size_t dim, size_t bits, Rng& rng,
                                  size_t tables = 1);

  /// Writes every table's code for `x` (length dim) to `codes` (length
  /// tables). Bit b of a code, counted from the most significant of its
  /// `bits`, is 1 iff <x, plane_b> >= 0.
  void HashAll(std::span<const float> x, std::span<uint32_t> codes) const;

  /// Table 0's code for `x`.
  uint32_t Hash(std::span<const float> x) const;

  size_t dim() const { return dim_; }
  size_t bits() const { return bits_; }
  /// Number of distinct codes per table, 2^bits.
  uint32_t num_buckets() const { return 1u << bits_; }

 private:
  SrpHash(size_t dim, size_t bits, size_t tables, size_t stride,
          std::vector<float> planes)
      : dim_(dim),
        bits_(bits),
        tables_(tables),
        stride_(stride),
        planes_(std::move(planes)) {}

  // Dot products of x with lanes [lane0, lane0 + kLaneBlock).
  void DotBlock(const float* x, size_t lane0, float* out) const;

  size_t dim_;
  size_t bits_;
  size_t tables_;
  size_t stride_;  // lanes per row: tables_ * bits_ rounded up to kLaneBlock
  // planes_[i * stride_ + t * bits_ + b] is coordinate i of table t's plane
  // b; padding lanes are zero.
  std::vector<float> planes_;
};

/// Probability two unit vectors at angle theta collide on one SRP bit:
/// 1 - theta / pi. Exposed for tests of the LSH property.
double SrpCollisionProbability(double cosine_similarity);

}  // namespace sampnn
