#include "src/tensor/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/tensor/gemm.h"
#include "src/tensor/kernel_config.h"
#include "src/tensor/simd.h"
#include "src/telemetry/metrics_registry.h"
#include "src/telemetry/telemetry.h"
#include "src/telemetry/trace.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SAMPNN_KERNELS_X86 1
#include <immintrin.h>
#endif

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

// ---------------------------------------------------------------------------
// Sampled outer-product sums and column norms (MC-approx).
// ---------------------------------------------------------------------------

namespace {

// Output columns per task. Each task first gathers its columns of the S
// sampled v vectors into an S x kOuterCols panel (50 KiB at S = 100), so
// a column of B (the δ·Wᵀ layout) is read once per call, not once per
// output row.
constexpr size_t kOuterCols = 128;
// Output rows per task; a task's rows share its gathered panel.
constexpr size_t kOuterRows = 256;
// Columns per column-norm task.
constexpr size_t kNormCols = 256;

// One kept term of an output row: sample s and its scaled factor.
struct OuterTerm {
  uint32_t s;
  float f;
};

// The caller's kept terms (row x's at [x * S, x * S + count[x])) and each
// task's panel. They grow to the largest call and are reused, so a
// steady-state product allocates nothing.
thread_local std::vector<OuterTerm> t_outer_terms;
thread_local std::vector<uint32_t> t_outer_counts;
thread_local AlignedBuffer t_outer_panel;

// Row x's terms: f = u_s[x] * scales[s] for every s in ascending order
// whose f is not zero (a NaN f is kept), written without a branch.
void KeptTerms(const Matrix& a, Pick pick, std::span<const uint32_t> idx,
               std::span<const float> scales, OuterTerm* terms,
               uint32_t* counts) {
  const size_t n_s = idx.size(), ld = a.cols();
  const size_t m = pick == Pick::kCol ? a.rows() : ld;
  // u_s[x] = A[x][idx[s]] (kCol) or A[idx[s]][x] (kRow).
  const size_t x_stride = pick == Pick::kCol ? ld : 1;
  const size_t s_stride = pick == Pick::kCol ? 1 : ld;
  for (size_t x = 0; x < m; ++x) {
    const float* ax = a.data() + x * x_stride;
    OuterTerm* tx = terms + x * n_s;
    uint32_t n = 0;
    for (size_t s = 0; s < n_s; ++s) {
      const float f = ax[idx[s] * s_stride] * scales[s];
      tx[n] = {static_cast<uint32_t>(s), f};
      n += f != 0.0f;
    }
    counts[x] = n;
  }
}

// Panel row s = v_s[y0, y0 + w), zero-padded to the next 16 columns so
// the AVX2 path loads whole vectors; only its stores are masked.
void GatherPanel(const Matrix& b, Pick pick, std::span<const uint32_t> idx,
                 size_t y0, size_t w, float* panel) {
  const size_t n_s = idx.size(), ld = b.cols();
  const float* bd = b.data();
  if (pick == Pick::kRow) {
    for (size_t s = 0; s < n_s; ++s) {
      std::memcpy(panel + s * kOuterCols, bd + idx[s] * ld + y0,
                  w * sizeof(float));
    }
  } else {
    // Row by row of B: each row's sampled entries are read together.
    for (size_t t = 0; t < w; ++t) {
      const float* row = bd + (y0 + t) * ld;
      for (size_t s = 0; s < n_s; ++s) panel[s * kOuterCols + t] = row[idx[s]];
    }
  }
  const size_t padded = (w + 15) / 16 * 16;
  for (size_t s = 0; s < n_s && padded != w; ++s) {
    std::fill(panel + s * kOuterCols + w, panel + s * kOuterCols + padded,
              0.0f);
  }
}

// Rows [x0, x1) x panel columns [0, w) of C; c points at the block's first
// column. The reference order: per row, zero, then add the kept terms.
void OuterBlockPortable(const OuterTerm* terms, const uint32_t* counts,
                        size_t n_s, const float* panel, size_t x0, size_t x1,
                        size_t w, float* c, size_t ldc) {
  for (size_t x = x0; x < x1; ++x) {
    float* __restrict__ crow = c + x * ldc;
    std::fill(crow, crow + w, 0.0f);
    for (size_t j = 0; j < counts[x]; ++j) {
      const OuterTerm term = terms[x * n_s + j];
      const float* __restrict__ v = panel + term.s * kOuterCols;
      for (size_t t = 0; t < w; ++t) crow[t] += term.f * v[t];
    }
  }
}

// acc[j] += row_r[j]^2 for rows r = 0..3 in order, four rows per pass
// over acc (rows `ld` floats apart). The compiler vectorizes the j loop;
// each lane is one column's sum, so the order is ColNorm's.
void AddSquares4(const float* row, size_t ld, size_t w, double* acc) {
  for (size_t j = 0; j < w; ++j) {
    double sum = acc[j];
    for (size_t r = 0; r < 4; ++r) {
      const float v = row[r * ld + j];
      sum += static_cast<double>(v) * v;
    }
    acc[j] = sum;
  }
}

void AddSquares(const float* row, size_t w, double* acc) {
  for (size_t j = 0; j < w; ++j) acc[j] += static_cast<double>(row[j]) * row[j];
}

#ifdef SAMPNN_KERNELS_X86

// NV vectors (8 * NV columns) of one output row: the row's kept terms
// are summed in registers, in order, and the row segment is stored once,
// masked to the `left` columns that remain. Compiled for AVX2 without
// FMA, so each term is a rounded product added to the accumulator.
template <size_t NV>
__attribute__((target("avx2"))) void OuterChunkAvx2(const OuterTerm* terms,
                                                    uint32_t n,
                                                    const float* panel,
                                                    size_t left, float* c) {
  __m256 acc[NV];
  for (size_t i = 0; i < NV; ++i) acc[i] = _mm256_setzero_ps();
  for (uint32_t j = 0; j < n; ++j) {
    const __m256 f = _mm256_set1_ps(terms[j].f);
    const float* v = panel + terms[j].s * kOuterCols;
    for (size_t i = 0; i < NV; ++i) {
      const __m256 term = _mm256_mul_ps(f, _mm256_load_ps(v + 8 * i));
      acc[i] = _mm256_add_ps(acc[i], term);
    }
  }
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  for (size_t i = 0; i < NV && 8 * i < left; ++i) {
    if (left - 8 * i >= 8) {
      _mm256_storeu_ps(c + 8 * i, acc[i]);
    } else {
      const auto rem = static_cast<int>(left - 8 * i);
      _mm256_maskstore_ps(
          c + 8 * i, _mm256_cmpgt_epi32(_mm256_set1_epi32(rem), lane), acc[i]);
    }
  }
}

// Row by row, 64 columns at a time (eight independent sums), then 16.
__attribute__((target("avx2"))) void OuterBlockAvx2(
    const OuterTerm* terms, const uint32_t* counts, size_t n_s,
    const float* panel, size_t x0, size_t x1, size_t w, float* c,
    size_t ldc) {
  for (size_t x = x0; x < x1; ++x) {
    const OuterTerm* tx = terms + x * n_s;
    float* crow = c + x * ldc;
    size_t t = 0;
    for (; t + 64 <= w; t += 64) {
      OuterChunkAvx2<8>(tx, counts[x], panel + t, 64, crow + t);
    }
    for (; t < w; t += 16) {
      OuterChunkAvx2<2>(tx, counts[x], panel + t, w - t, crow + t);
    }
  }
}

#endif  // SAMPNN_KERNELS_X86

// The AVX2 rows give the portable loop's bits; deterministic mode keeps
// to the portable loop anyway, like every other kernel.
bool UseOuterAvx2() {
#ifdef SAMPNN_KERNELS_X86
  static const bool ok = __builtin_cpu_supports("avx2");
  return ok && !DeterministicKernels();
#else
  return false;
#endif
}

}  // namespace

void ColumnNorms(const Matrix& m, std::span<float> out) {
  SAMPNN_CHECK_EQ(out.size(), m.cols());
  const size_t rows = m.rows(), cols = m.cols();
  const size_t tasks = (cols + kNormCols - 1) / kNormCols;
  // Dispatched as 4 flops per element: each square and add is a double
  // lane, half a float lane's width.
  ParallelTasks(tasks, uint64_t{4} * rows * cols, [&](size_t task) {
    const size_t j0 = task * kNormCols;
    const size_t w = std::min(kNormCols, cols - j0);
    double acc[kNormCols] = {};
    const float* row = m.data() + j0;
    size_t i = 0;
    for (; i + 4 <= rows; i += 4, row += 4 * cols) {
      AddSquares4(row, cols, w, acc);
    }
    for (; i < rows; ++i, row += cols) AddSquares(row, w, acc);
    for (size_t j = 0; j < w; ++j) {
      out[j0 + j] = static_cast<float>(std::sqrt(acc[j]));
    }
  });
}

void SampledOuterProducts(const Matrix& a, Pick a_pick, const Matrix& b,
                          Pick b_pick, std::span<const uint32_t> idx,
                          std::span<const float> scales, Matrix* c) {
  SAMPNN_CHECK(c != nullptr);
  SAMPNN_CHECK_EQ(idx.size(), scales.size());
  const size_t m = a_pick == Pick::kCol ? a.rows() : a.cols();
  const size_t n = b_pick == Pick::kRow ? b.cols() : b.rows();
  SAMPNN_CHECK_EQ(c->rows(), m);
  SAMPNN_CHECK_EQ(c->cols(), n);
  for (const uint32_t i : idx) {
    SAMPNN_DCHECK_BOUNDS(i, a_pick == Pick::kCol ? a.cols() : a.rows());
    SAMPNN_DCHECK_BOUNDS(i, b_pick == Pick::kRow ? b.rows() : b.cols());
  }
  const size_t n_s = idx.size();
  const uint64_t flops = uint64_t{2} * n_s * m * n;
  CountSparseFlops(flops);
  if (m == 0 || n == 0) return;
  if (n_s == 0) {
    c->SetZero();
    return;
  }
  if (t_outer_terms.size() < m * n_s) t_outer_terms.resize(m * n_s);
  if (t_outer_counts.size() < m) t_outer_counts.resize(m);
  OuterTerm* const terms = t_outer_terms.data();
  uint32_t* const counts = t_outer_counts.data();
  KeptTerms(a, a_pick, idx, scales, terms, counts);
  [[maybe_unused]] const bool avx2 = UseOuterAvx2();
  const size_t col_blocks = (n + kOuterCols - 1) / kOuterCols;
  const size_t row_blocks = (m + kOuterRows - 1) / kOuterRows;
  float* const cd = c->data();
  // Each task owns a block of C, so every element has one writer that adds
  // its row's kept terms in order; neither the split nor the worker count
  // matters.
  ParallelTasks(row_blocks * col_blocks, flops, [&](size_t task) {
    const size_t x0 = task / col_blocks * kOuterRows;
    const size_t x1 = std::min(m, x0 + kOuterRows);
    const size_t y0 = task % col_blocks * kOuterCols;
    const size_t w = std::min(kOuterCols, n - y0);
    t_outer_panel.GrowTo(n_s * kOuterCols);
    float* const panel = t_outer_panel.data();
    GatherPanel(b, b_pick, idx, y0, w, panel);
#ifdef SAMPNN_KERNELS_X86
    if (avx2) {
      OuterBlockAvx2(terms, counts, n_s, panel, x0, x1, w, cd + y0, n);
      return;
    }
#endif
    OuterBlockPortable(terms, counts, n_s, panel, x0, x1, w, cd + y0, n);
  });
}

}  // namespace sampnn
