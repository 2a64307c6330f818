// Packed, register-blocked GEMM driver — the shared engine behind
// Gemm / GemmTransA / GemmTransB (src/tensor/kernels.h).
//
// The driver computes C(m x n) += alpha * op(A) * op(B) where both operands
// are described by (row stride, column stride) pairs, so the three public
// transpose variants are one code path with different strides:
//
//     Gemm        A: (k, 1)   B: (n, 1)
//     GemmTransA  A: (1, k)   B: (n, 1)     (reads A transposed)
//     GemmTransB  A: (k, 1)   B: (1, k)     (reads B transposed)
//
// The driver is the full BLIS-style five-loop cache-blocked nest around a
// kMR x kNR register-tile microkernel (AVX2+FMA via a function-level
// target attribute when the CPU supports it, otherwise a portable
// lane-ordered loop the compiler vectorizes at the baseline ISA):
//
//     loop 5  jc over n  in steps of Nc   (B panel columns; L3 resident)
//     loop 4  pc over k  in steps of Kc   (pack B panel, shared via
//                                          PackedBufferPool)
//     loop 3  ic over m  in steps of Mc   (pack A block, thread-local;
//                                          L2 resident)
//     loop 2  jr over Nc in steps of kNR  (B microtile; L1 resident)
//     loop 1  ir over Mc in steps of kMR  (microkernel)
//
// Mc/Kc/Nc derive from detected cache geometry, overridable via
// SAMPNN_GEMM_{MC,KC,NC} (src/tensor/kernel_config.h). A is packed into
// 64-byte-aligned, zero-padded panels (alpha folded into the A pack); edge
// tiles take the same packed path as interior tiles — the zero padding
// keeps the microkernel branch-free, only the final store narrows.
//
// A product with more than four row tiles packs each Kc x Nc B panel once
// into a pooled shared buffer (cooperatively, column tiles split across
// the workers), then partitions a fixed 2-D grid of (Mc row block) x
// (column chunk) tasks across the shared kernel pool. A skinny product
// (at most four row tiles) shares no panel: its grid fans out once per Nc
// panel, and each task walks every Kc block of its columns in ascending
// order. It reads full column tiles of a row-major B in place (one row
// tile, or up to four when B's row stride is not a multiple of 4 KiB),
// prefetching the strided rows a few k steps ahead (a one-row product runs
// on a 1 x 4*kNR tile instead); any other tile — a column-strided B, an
// aliased stride, a partial last tile — is packed by its task into a
// thread-local one-tile buffer. A column-strided B is packed by 8 x 8
// register transposes on the AVX2 path. The grid shape depends only on
// the operand shape and blocking — never on the worker count — and every
// output element has exactly one writer accumulating in a fixed k order,
// so results are bitwise-identical for every thread count (including
// serial packed execution) and every B layout, for a given blocking.
// Worker counts are clamped to hardware concurrency (monotone scaling by
// construction; see GemmEffectiveWorkers). Only the deterministic-mode
// scalar path (kernels.cc) is ordered differently. See DESIGN.md §9.

#pragma once

#include <cstddef>

namespace sampnn::gemm_internal {

/// Microkernel register-tile shape (rows x columns).
inline constexpr size_t kMR = 6;
inline constexpr size_t kNR = 16;

/// True when the AVX2+FMA microkernel is selected at runtime.
bool MicroKernelIsAvx2();

/// C += alpha * op(A) * op(B), or C = alpha * op(A) * op(B) with
/// `overwrite`, on the task grid above across the shared kernel pool
/// (`threads` workers; <= 1 runs the same grid serially). C is row-major
/// with leading dimension ldc. With `overwrite` the first Kc block of each
/// tile stores 0 + its block sum, so C's old contents are never read and
/// the bits equal accumulating into a zeroed C; it requires k > 0 and
/// alpha != 0, since no block runs otherwise. Callers apply any other beta
/// to C first. Bitwise-identical for any thread count.
void PackedGemmParallel(size_t m, size_t n, size_t k, float alpha,
                        const float* a, size_t a_rs, size_t a_cs,
                        const float* b, size_t b_rs, size_t b_cs, float* c,
                        size_t ldc, size_t threads, bool overwrite);

}  // namespace sampnn::gemm_internal
