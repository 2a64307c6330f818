#include "src/tensor/kernels.h"

#include <algorithm>
#include <cstring>

#include "src/tensor/gemm.h"
#include "src/tensor/kernel_config.h"
#include "src/tensor/simd.h"
#include "src/telemetry/metrics_registry.h"
#include "src/telemetry/telemetry.h"
#include "src/telemetry/trace.h"

namespace sampnn {

namespace {
// Block sizes for the deterministic scalar path, tuned for ~32 KiB L1:
// a 64x64 float tile of B is 16 KiB.
constexpr size_t kBlockK = 64;
constexpr size_t kBlockJ = 256;

// Telemetry FLOP tallies (2 flops per multiply-accumulate), charged once per
// kernel call so the inner loops stay untouched. `nominal` is the dense
// 2*m*n*k cost of the product; `realized` is the work actually executed
// after input-sparsity shortcuts. The packed GEMM path skips nothing, so
// the two coincide there; VecMat still skips zero input rows (dropout
// produces exact zeros on the SGD path), so its realized count is lower.
inline void CountDenseFlops(size_t nominal, size_t realized) {
  if (!TelemetryEnabled()) return;
  static Counter& n = MetricsRegistry::Get().GetCounter("tensor.gemm.flops");
  static Counter& r =
      MetricsRegistry::Get().GetCounter("tensor.gemm.flops_realized");
  n.Add(nominal);
  r.Add(realized);
}

inline void CountSparseFlops(size_t flops) {
  if (!TelemetryEnabled()) return;
  static Counter& c = MetricsRegistry::Get().GetCounter("tensor.sparse.flops");
  c.Add(flops);
}

// Serial/parallel dispatch tallies for the batch GEMM family, exported per
// epoch (scripts/check_telemetry.py keys gemm_*_dispatches).
inline void CountDispatch(bool parallel) {
  if (!TelemetryEnabled()) return;
  static Counter& p =
      MetricsRegistry::Get().GetCounter("tensor.gemm.parallel_dispatches");
  static Counter& s =
      MetricsRegistry::Get().GetCounter("tensor.gemm.serial_dispatches");
  (parallel ? p : s).Increment();
}

// Applies beta to C before the accumulating product: C = beta * C.
inline void ApplyBeta(Matrix* c, float beta) {
  if (beta == 0.0f) {
    c->SetZero();
  } else if (beta != 1.0f) {
    Scale(c, beta);
  }
}

// Chooses the execution mode for one dense product C(m x n) = alpha *
// op(A) * op(B) + beta * C and runs it: deterministic scalar
// (caller-provided), packed serial, or packed on the kernel pool when the
// product is big enough to amortize packing and worker wakeup.
//
// Write-once rule: a beta = 0 product on more than one worker skips the
// serial memset, and the task that owns each C block stores 0 + its first
// Kc block sum (same bits; C's old contents are never read). Serial
// products keep memset + accumulate: with C out of cache, the kernel's
// strided first-touch stores each miss for ownership while a memset
// streams, and one worker overwriting lost to it (DESIGN.md §9).
template <typename DetFn>
void DispatchGemm(size_t m, size_t n, size_t k, float alpha, float beta,
                  const float* a, size_t a_rs, size_t a_cs, const float* b,
                  size_t b_rs, size_t b_cs, Matrix* c,
                  DetFn&& deterministic) {
  if (DeterministicKernels()) {
    ApplyBeta(c, beta);
    deterministic();
    return;
  }
  TraceSpan span("gemm");
  const uint64_t flops = uint64_t{2} * m * n * k;
  const size_t threads =
      flops >= GemmParallelMinFlops() ? GemmThreads() : size_t{1};
  CountDispatch(threads > 1);
  const bool overwrite = beta == 0.0f && k != 0 && alpha != 0.0f &&
                         GemmEffectiveWorkers(threads) > 1;
  if (!overwrite) ApplyBeta(c, beta);
  gemm_internal::PackedGemmParallel(m, n, k, alpha, a, a_rs, a_cs, b, b_rs,
                                    b_cs, c->data(), n, threads, overwrite);
}

// --- Deterministic scalar kernels: the seed's serial loop orderings. ---

void GemmScalar(const float* ad, const float* bd, float* cd, size_t m,
                size_t k, size_t n, float alpha) {
  for (size_t k0 = 0; k0 < k; k0 += kBlockK) {
    const size_t k1 = std::min(k, k0 + kBlockK);
    for (size_t j0 = 0; j0 < n; j0 += kBlockJ) {
      const size_t j1 = std::min(n, j0 + kBlockJ);
      for (size_t i = 0; i < m; ++i) {
        const float* arow = ad + i * k;
        float* crow = cd + i * n;
        for (size_t l = k0; l < k1; ++l) {
          const float av = alpha * arow[l];
          const float* brow = bd + l * n;
          for (size_t j = j0; j < j1; ++j) {
            crow[j] += av * brow[j];
          }
        }
      }
    }
  }
}

void GemmTransAScalar(const float* ad, const float* bd, float* cd, size_t m,
                      size_t k, size_t n, float alpha) {
  // C[l, j] += A[i, l] * B[i, j]: stream rows of A and B, scatter into C
  // rows.
  for (size_t i = 0; i < m; ++i) {
    const float* arow = ad + i * k;
    const float* brow = bd + i * n;
    for (size_t l = 0; l < k; ++l) {
      const float av = alpha * arow[l];
      float* crow = cd + l * n;
      for (size_t j = 0; j < n; ++j) {
        crow[j] += av * brow[j];
      }
    }
  }
}

void GemmTransBScalar(const float* ad, const float* bd, float* cd, size_t m,
                      size_t k, size_t n, float alpha) {
  // C[i, j] += <A row i, B row j>: both operands stream row-major.
  for (size_t i = 0; i < m; ++i) {
    const float* arow = ad + i * k;
    float* crow = cd + i * n;
    for (size_t j = 0; j < n; ++j) {
      const float* brow = bd + j * k;
      float acc = 0.0f;
      for (size_t l = 0; l < k; ++l) acc += arow[l] * brow[l];
      crow[j] += alpha * acc;
    }
  }
}

}  // namespace

void Gemm(const Matrix& a, const Matrix& b, Matrix* c, float alpha,
          float beta) {
  SAMPNN_CHECK(c != nullptr);
  const size_t m = a.rows(), k = a.cols(), n = b.cols();
  SAMPNN_CHECK_EQ(b.rows(), k);
  SAMPNN_CHECK_EQ(c->rows(), m);
  SAMPNN_CHECK_EQ(c->cols(), n);
  CountDenseFlops(2 * m * k * n, 2 * m * k * n);
  const float* ad = a.data();
  const float* bd = b.data();
  float* cd = c->data();
  DispatchGemm(m, n, k, alpha, beta, ad, k, 1, bd, n, 1, c,
               [&] { GemmScalar(ad, bd, cd, m, k, n, alpha); });
}

void GemmTransA(const Matrix& a, const Matrix& b, Matrix* c, float alpha,
                float beta) {
  SAMPNN_CHECK(c != nullptr);
  const size_t m = a.rows(), k = a.cols(), n = b.cols();
  SAMPNN_CHECK_EQ(b.rows(), m);
  SAMPNN_CHECK_EQ(c->rows(), k);
  SAMPNN_CHECK_EQ(c->cols(), n);
  CountDenseFlops(2 * m * k * n, 2 * m * k * n);
  const float* ad = a.data();
  const float* bd = b.data();
  float* cd = c->data();
  // op(A) = A^T: the packed path's task grid splits C's rows (the weight
  // gradient's fan-in) into Mc blocks and its columns into chunks, and
  // every C element has one writer, so the weight-gradient product is
  // race-free by construction.
  DispatchGemm(k, n, m, alpha, beta, ad, 1, k, bd, n, 1, c,
               [&] { GemmTransAScalar(ad, bd, cd, m, k, n, alpha); });
}

void GemmTransB(const Matrix& a, const Matrix& b, Matrix* c, float alpha,
                float beta) {
  SAMPNN_CHECK(c != nullptr);
  const size_t m = a.rows(), k = a.cols(), n = b.rows();
  SAMPNN_CHECK_EQ(b.cols(), k);
  SAMPNN_CHECK_EQ(c->rows(), m);
  SAMPNN_CHECK_EQ(c->cols(), n);
  CountDenseFlops(2 * m * k * n, 2 * m * k * n);
  const float* ad = a.data();
  const float* bd = b.data();
  float* cd = c->data();
  DispatchGemm(m, n, k, alpha, beta, ad, k, 1, bd, 1, k, c,
               [&] { GemmTransBScalar(ad, bd, cd, m, k, n, alpha); });
}

void VecMat(std::span<const float> x, const Matrix& w,
            std::span<const float> bias, std::span<float> y) {
  const size_t k = w.rows(), n = w.cols();
  SAMPNN_CHECK_EQ(x.size(), k);
  SAMPNN_CHECK_EQ(y.size(), n);
  if (!bias.empty()) {
    SAMPNN_CHECK_EQ(bias.size(), n);
    std::memcpy(y.data(), bias.data(), n * sizeof(float));
  } else {
    std::fill(y.begin(), y.end(), 0.0f);
  }
  // The SGD hot path keeps the sparse-input fast path: dropout zeroes
  // entire input coordinates, so skipping x[i] == 0 rows skips real work.
  const float* wd = w.data();
  size_t nonzero = 0;
  for (size_t i = 0; i < k; ++i) {
    const float xv = x[i];
    if (xv == 0.0f) continue;
    ++nonzero;
    simd::Axpy(n, xv, wd + i * n, y.data());
  }
  CountDenseFlops(2 * k * n, 2 * nonzero * n);
}

void AddRowVector(Matrix* m, std::span<const float> v) {
  SAMPNN_CHECK(m != nullptr);
  SAMPNN_CHECK_EQ(v.size(), m->cols());
  const size_t cols = m->cols();
  float* d = m->data();
  for (size_t i = 0; i < m->rows(); ++i) {
    simd::Add(cols, v.data(), d + i * cols);
  }
}

void HadamardInPlace(Matrix* a, const Matrix& b) {
  SAMPNN_CHECK(a != nullptr);
  SAMPNN_CHECK_EQ(a->rows(), b.rows());
  SAMPNN_CHECK_EQ(a->cols(), b.cols());
  simd::Mul(a->size(), b.data(), a->data());
}

void Axpy(float alpha, const Matrix& x, Matrix* y) {
  SAMPNN_CHECK(y != nullptr);
  SAMPNN_CHECK_EQ(x.rows(), y->rows());
  SAMPNN_CHECK_EQ(x.cols(), y->cols());
  simd::Axpy(x.size(), alpha, x.data(), y->data());
}

void Scale(Matrix* m, float alpha) {
  SAMPNN_CHECK(m != nullptr);
  simd::Scale(m->size(), alpha, m->data());
}

void ColumnSums(const Matrix& m, std::span<float> out) {
  SAMPNN_CHECK_EQ(out.size(), m.cols());
  std::fill(out.begin(), out.end(), 0.0f);
  const size_t cols = m.cols();
  const float* d = m.data();
  for (size_t i = 0; i < m.rows(); ++i) {
    simd::Add(cols, d + i * cols, out.data());
  }
}

void VecMatCols(std::span<const float> x, std::span<const uint32_t> rows,
                const Matrix& w, std::span<const float> bias,
                std::span<const uint32_t> cols, std::span<float> y) {
  const size_t k = w.rows(), n = w.cols();
  SAMPNN_CHECK_EQ(x.size(), k);
  SAMPNN_CHECK_EQ(y.size(), n);
  SAMPNN_CHECK(bias.empty() || bias.size() == n);
  // Charged as the dense-column product 2*k*|cols| whatever the support.
  CountSparseFlops(2 * k * cols.size());
  float* yd = y.data();
  for (uint32_t j : cols) {
    SAMPNN_DCHECK_BOUNDS(j, n);
    yd[j] = bias.empty() ? 0.0f : bias[j];
  }
  // Four rows per pass over `cols`: each y[j] takes its four terms in row
  // order, so the sum order is unchanged while y is loaded and stored once
  // per four rows.
  const float* wd = w.data();
  const uint32_t* cd = cols.data();
  const size_t m = cols.size();
  size_t r = 0;
  for (; r + 4 <= rows.size(); r += 4) {
    const uint32_t i0 = rows[r], i1 = rows[r + 1], i2 = rows[r + 2],
                   i3 = rows[r + 3];
    SAMPNN_DCHECK(i0 < k && i1 < k && i2 < k && i3 < k);
    const float x0 = x[i0], x1 = x[i1], x2 = x[i2], x3 = x[i3];
    const float* w0 = wd + i0 * n;
    const float* w1 = wd + i1 * n;
    const float* w2 = wd + i2 * n;
    const float* w3 = wd + i3 * n;
    for (size_t t = 0; t < m; ++t) {
      const uint32_t j = cd[t];
      float acc = yd[j];
      acc += x0 * w0[j];
      acc += x1 * w1[j];
      acc += x2 * w2[j];
      acc += x3 * w3[j];
      yd[j] = acc;
    }
  }
  for (; r < rows.size(); ++r) {
    const uint32_t i = rows[r];
    SAMPNN_DCHECK_BOUNDS(i, k);
    const float xv = x[i];
    const float* wi = wd + i * n;
    for (size_t t = 0; t < m; ++t) yd[cd[t]] += xv * wi[cd[t]];
  }
}

}  // namespace sampnn
