// Dense and sparse linear-algebra kernels.
//
// These are the Θ(n²)-per-layer operations the paper identifies as the
// training bottleneck (§4.1), plus the sparse/active-set variants that the
// sampling-based methods substitute for them:
//   - full gemm family (standard training, minibatch),
//   - column-subset products (ALSH-approx: "sampling from current layer"),
//   - sampled outer-product sums and column norms (MC-approx's Adelman
//     and Drineas estimators, src/approx/).
//
// The gemm family runs on a packed, register-blocked microkernel
// (src/tensor/gemm.h): AVX2+FMA when the CPU supports it, split into a
// fixed grid of (row block) x (column chunk) tasks on the kernel pool above
// a FLOP threshold (SAMPNN_THREADS workers), with a bitwise-stable serial
// scalar path under SAMPNN_DETERMINISTIC_KERNELS=1.
// Elementwise ops vectorize through src/tensor/simd.h. Tuning knobs and
// the determinism switch live in src/tensor/kernel_config.h; DESIGN.md §9
// documents the architecture and the float-reassociation tolerance.

#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "src/tensor/matrix.h"

namespace sampnn {

// Beta = 0 means C's old contents are discarded: a product on the kernel
// pool never reads them (each C block is written once, as 0 + its first
// Kc block sum; NaN garbage cannot leak), a serial one zeroes C first, and
// both give the same bits. A product stopped by kernel cancellation
// (ScopedKernelCancellation, src/tensor/kernel_config.h) leaves C
// unspecified — with beta = 0 on the pool, partly its old contents — and
// the cancellable caller discards it.

/// C = alpha * A(m x k) * B(k x n) + beta * C(m x n).
void Gemm(const Matrix& a, const Matrix& b, Matrix* c, float alpha = 1.0f,
          float beta = 0.0f);

/// C = alpha * A^T(m x k) * B(m x n) + beta * C(k x n).
/// Used for weight gradients: grad_W = A_prev^T * delta.
void GemmTransA(const Matrix& a, const Matrix& b, Matrix* c,
                float alpha = 1.0f, float beta = 0.0f);

/// C = alpha * A(m x k) * B^T(n x k) + beta * C(m x n).
/// Used to push deltas back: delta_prev = delta * W^T.
void GemmTransB(const Matrix& a, const Matrix& b, Matrix* c,
                float alpha = 1.0f, float beta = 0.0f);

/// y(1 x n) = x(1 x k) * W(k x n) + b(1 x n). The SGD hot path.
void VecMat(std::span<const float> x, const Matrix& w,
            std::span<const float> bias, std::span<float> y);

/// Adds row vector `v` (1 x cols) to every row of `m`.
void AddRowVector(Matrix* m, std::span<const float> v);

/// a := a ⊙ b elementwise (Hadamard). Shapes must match.
void HadamardInPlace(Matrix* a, const Matrix& b);

/// y := y + alpha * x elementwise. Shapes must match.
void Axpy(float alpha, const Matrix& x, Matrix* y);

/// m := alpha * m.
void Scale(Matrix* m, float alpha);

/// Sums each column of `m` into `out` (size cols). Used for bias gradients.
void ColumnSums(const Matrix& m, std::span<float> out);

/// out[j] = L2 norm of column j, bitwise equal to Matrix::ColNorm(j): one
/// double accumulator per column adds the rows' squares in row order (a
/// float square is exact in double), in one row-major pass whose columns
/// are split across the kernel pool like a sampled product's.
void ColumnNorms(const Matrix& m, std::span<float> out);

/// Smallest range ParallelRanges hands to a worker.
inline constexpr size_t kParallelRangeGrain = 64 * 1024;

/// Runs fn(t) for every t in [0, n) on the GEMM's kernel pool
/// (GemmEffectiveWorkers(GemmThreads()) workers) when `flops` reaches
/// GemmParallelMinFlops(); otherwise, and under DeterministicKernels(),
/// inline in ascending order. For tasks that write disjoint outputs, whose
/// results then do not depend on the worker count.
void ParallelTasks(size_t n, uint64_t flops,
                   const std::function<void(size_t)>& fn);

/// Runs fn(begin, end) over contiguous ranges that cover [0, n), on the
/// GEMM's kernel pool: at most GemmEffectiveWorkers(GemmThreads()) ranges,
/// each at least kParallelRangeGrain long, with boundaries on multiples of
/// 16 elements. A sweep below two grains, or any sweep under
/// DeterministicKernels(), runs inline as fn(0, n). For per-element sweeps
/// (the dense optimizers), whose results then do not depend on the worker
/// count.
void ParallelRanges(size_t n, const std::function<void(size_t, size_t)>& fn);

// ---------------------------------------------------------------------------
// Sparse / active-set kernels (the sampling-based substitutes).
// ---------------------------------------------------------------------------

/// Support-restricted product: for each active column j in `cols`,
/// y[j] = bias[j] + sum over i in `rows` of x[i] * W(i, j) (bias empty = 0).
/// `rows` is the support of x — every row whose x[i] is nonzero, ascending;
/// passing every row of W gives the exact dense column products. `cols`
/// must be distinct. Walks W row by row, and each y[j] still sums in the
/// order of `rows` with a separate multiply and add, so the result is
/// bitwise that of a column-at-a-time dot product over the same rows.
/// Entries of y outside `cols` are left untouched (callers zero y first to
/// realize the paper's "estimate inactive activations as zero").
void VecMatCols(std::span<const float> x, std::span<const uint32_t> rows,
                const Matrix& w, std::span<const float> bias,
                std::span<const uint32_t> cols, std::span<float> y);

/// Which vector of a matrix a sampled product takes for index i.
enum class Pick { kRow, kCol };

/// Sampled outer-product sum, the product behind MC-approx's estimators:
///   C = sum over s = 0, 1, ... of (scales[s] * u_s) ⊗ v_s,
/// where u_s is row or column idx[s] of A (`a_pick`) and v_s row or column
/// idx[s] of B (`b_pick`); C must be |u_s| x |v_s|. Every element of C
/// starts at +0 and takes its terms in ascending s, each
/// fl(fl(u * scale) * v) added with a separate multiply and add (never an
/// FMA); a zero factor u * scale adds nothing, not even the NaN of 0 * Inf.
/// So C equals a loop that zeroes C and adds one scaled rank-1 term per
/// sample, bit for bit, on every path and worker count. C's old contents
/// are never read. Charged 2 * S * |C| to tensor.sparse.flops.
void SampledOuterProducts(const Matrix& a, Pick a_pick, const Matrix& b,
                          Pick b_pick, std::span<const uint32_t> idx,
                          std::span<const float> scales, Matrix* c);

}  // namespace sampnn
