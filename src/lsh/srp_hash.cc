#include "src/lsh/srp_hash.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SAMPNN_SRP_X86 1
#include <immintrin.h>
#endif

namespace sampnn {

namespace {

constexpr size_t kBlock = SrpHash::kLaneBlock;

// out[l] = sum over ascending i of p[i * stride + l] * x[i], l < kBlock.
// Both versions round the multiply and the add separately, lane by lane, so
// they agree bit for bit with each other and with a scalar per-plane loop.
void DotBlockPortable(const float* __restrict__ p, size_t stride, size_t dim,
                      const float* __restrict__ x, float* __restrict__ out) {
  float acc[kBlock] = {};
  for (size_t i = 0; i < dim; ++i, p += stride) {
    const float xi = x[i];
    for (size_t l = 0; l < kBlock; ++l) acc[l] += p[l] * xi;
  }
  std::copy(acc, acc + kBlock, out);
}

#ifdef SAMPNN_SRP_X86

// Targets AVX2 without FMA: the compiler cannot fuse the multiply and add.
__attribute__((target("avx2"))) void DotBlockAvx2(const float* p,
                                                  size_t stride, size_t dim,
                                                  const float* x, float* out) {
  __m256 a0 = _mm256_setzero_ps(), a1 = a0, a2 = a0, a3 = a0;
  for (size_t i = 0; i < dim; ++i, p += stride) {
    const __m256 xi = _mm256_set1_ps(x[i]);
    a0 = _mm256_add_ps(a0, _mm256_mul_ps(_mm256_loadu_ps(p), xi));
    a1 = _mm256_add_ps(a1, _mm256_mul_ps(_mm256_loadu_ps(p + 8), xi));
    a2 = _mm256_add_ps(a2, _mm256_mul_ps(_mm256_loadu_ps(p + 16), xi));
    a3 = _mm256_add_ps(a3, _mm256_mul_ps(_mm256_loadu_ps(p + 24), xi));
  }
  _mm256_storeu_ps(out, a0);
  _mm256_storeu_ps(out + 8, a1);
  _mm256_storeu_ps(out + 16, a2);
  _mm256_storeu_ps(out + 24, a3);
}

bool HasAvx2() {
  static const bool ok = __builtin_cpu_supports("avx2");
  return ok;
}

#endif  // SAMPNN_SRP_X86

}  // namespace

StatusOr<SrpHash> SrpHash::Create(size_t dim, size_t bits, Rng& rng,
                                  size_t tables) {
  if (dim == 0) return Status::InvalidArgument("SrpHash: dim must be > 0");
  if (bits == 0 || bits > 30) {
    return Status::InvalidArgument("SrpHash: bits must be in [1, 30]");
  }
  if (tables == 0) {
    return Status::InvalidArgument("SrpHash: tables must be >= 1");
  }
  const size_t lanes = tables * bits;
  const size_t stride = (lanes + kBlock - 1) / kBlock * kBlock;
  std::vector<float> planes(dim * stride, 0.0f);
  // Lane l = t * bits + b: table by table, plane by plane, coordinate by
  // coordinate — the order of `tables` single-table draws.
  for (size_t l = 0; l < lanes; ++l) {
    for (size_t i = 0; i < dim; ++i) {
      planes[i * stride + l] = rng.NextGaussian();
    }
  }
  return SrpHash(dim, bits, tables, stride, std::move(planes));
}

void SrpHash::DotBlock(const float* x, size_t lane0, float* out) const {
  const float* p = planes_.data() + lane0;
#ifdef SAMPNN_SRP_X86
  if (HasAvx2()) {
    DotBlockAvx2(p, stride_, dim_, x, out);
    return;
  }
#endif
  DotBlockPortable(p, stride_, dim_, x, out);
}

void SrpHash::HashAll(std::span<const float> x,
                      std::span<uint32_t> codes) const {
  SAMPNN_DCHECK_EQ(x.size(), dim_);
  SAMPNN_DCHECK_EQ(codes.size(), tables_);
  std::fill(codes.begin(), codes.end(), 0u);
  const size_t lanes = tables_ * bits_;
  float dots[kBlock];
  for (size_t lane0 = 0; lane0 < lanes; lane0 += kBlock) {
    DotBlock(x.data(), lane0, dots);
    const size_t end = std::min(lanes, lane0 + kBlock);
    // A table's lanes are consecutive, so shifting each sign bit in from
    // the right builds its code most-significant plane first.
    for (size_t l = lane0; l < end; ++l) {
      uint32_t& code = codes[l / bits_];
      code = (code << 1) | (dots[l - lane0] >= 0.0f ? 1u : 0u);
    }
  }
}

uint32_t SrpHash::Hash(std::span<const float> x) const {
  SAMPNN_DCHECK_EQ(x.size(), dim_);
  float dots[kBlock];
  DotBlock(x.data(), 0, dots);
  uint32_t code = 0;
  for (size_t b = 0; b < bits_; ++b) {
    code = (code << 1) | (dots[b] >= 0.0f ? 1u : 0u);
  }
  return code;
}

double SrpCollisionProbability(double cosine_similarity) {
  const double c = std::min(1.0, std::max(-1.0, cosine_similarity));
  return 1.0 - std::acos(c) / 3.14159265358979323846;
}

}  // namespace sampnn
