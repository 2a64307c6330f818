// Runtime configuration for the dense kernel layer: worker count, the
// FLOP threshold below which GEMM stays serial, the Mc/Kc/Nc cache-block
// sizes of the five-loop GEMM nest, and the deterministic-mode switch. All
// knobs are process-global relaxed atomics — cheap to read on every
// dispatch, safe to flip from tests.
//
// Environment:
//   SAMPNN_THREADS                 worker count for partitioned GEMM
//                                  (default: hardware concurrency)
//   SAMPNN_DETERMINISTIC_KERNELS   1 = force the serial, scalar, seed-ordered
//                                  kernels everywhere (bitwise-stable across
//                                  hosts and thread settings; used by the
//                                  crash-resume smoke job)
//   SAMPNN_GEMM_PARALLEL_MIN_FLOPS override the serial/parallel threshold
//   SAMPNN_GEMM_MC / _KC / _NC     override one or more cache-block sizes
//                                  of the blocked GEMM nest (values are
//                                  rounded to microtile multiples; unset
//                                  dimensions derive from detected cache
//                                  geometry)
//   SAMPNN_GEMM_OVERSUBSCRIBE      1 = let the GEMM run more workers than
//                                  the machine has cores (tests only; by
//                                  default the worker count is clamped to
//                                  hardware concurrency, since
//                                  oversubscribing a compute-bound kernel
//                                  only adds context-switch overhead)

#pragma once

#include <cstddef>
#include <cstdint>

namespace sampnn {

struct CancelContext;  // src/util/deadline.h

/// Worker threads the partitioned GEMM path may use. Resolved on first call
/// from SAMPNN_THREADS, else std::thread::hardware_concurrency (min 1).
size_t GemmThreads();

/// Overrides the GEMM worker count. 0 re-resolves from the environment /
/// hardware on the next GemmThreads() call. The shared kernel pool is
/// re-created lazily on the next parallel dispatch.
void SetGemmThreads(size_t n);

/// 2*m*n*k threshold at or above which a GEMM dispatch is partitioned
/// across the kernel pool. Small products stay serial: the pack + wake cost
/// exceeds the work well below this size.
/// Resolved on first call from SAMPNN_GEMM_PARALLEL_MIN_FLOPS, else the
/// built-in default.
uint64_t GemmParallelMinFlops();
/// Overrides the threshold (1 = every dispatch goes to the pool). 0
/// re-resolves from the environment / default on the next
/// GemmParallelMinFlops() call.
void SetGemmParallelMinFlops(uint64_t flops);

/// Per-core data-cache capacities in bytes, detected once per process from
/// sysconf / sysfs. A level that cannot be detected reads 0; block-size
/// derivation substitutes conservative defaults (32 KiB / 1 MiB / 8 MiB).
struct CacheGeometry {
  size_t l1d_bytes = 0;
  size_t l2_bytes = 0;
  size_t l3_bytes = 0;
};
CacheGeometry DetectCacheGeometry();

/// Cache-block sizes for the five-loop BLIS-style GEMM nest
/// (src/tensor/gemm.cc). Invariants: mc is a multiple of the 6-row
/// microtile, nc a multiple of the 16-column microtile, kc a multiple of 8.
/// Defaults derive from DetectCacheGeometry(): kc sized so one A microtile
/// (6 x kc) plus one B microtile (kc x 16) stays L1-resident, mc so the
/// packed A block (mc x kc) fills about half of L2, nc so the shared packed
/// B panel (kc x nc) stays within a bounded L3 share. Each dimension is
/// independently overridable via SAMPNN_GEMM_{MC,KC,NC}.
///
/// Note: kc participates in rounding (the packed path adds one partial sum
/// to C per k-block), so changing it changes low-order result bits — like
/// the microkernel choice, it is fixed per process, and thread count never
/// affects results for a given configuration.
struct GemmBlocking {
  size_t mc = 0;
  size_t kc = 0;
  size_t nc = 0;
};

/// The blocking the next GEMM dispatch will use. Resolved on first call
/// from the environment / cache geometry, then cached.
GemmBlocking GemmBlockSizes();

/// Overrides the blocked nest's Mc/Kc/Nc (tests and tuning sweeps). Values
/// are rounded down to the microtile invariants above and floored at one
/// tile; a 0 field re-derives that dimension from the environment / cache
/// geometry on the next GemmBlockSizes() call. Not meant to be flipped
/// while GEMMs are in flight (each dispatch snapshots the blocking once).
void SetGemmBlockSizes(size_t mc, size_t kc, size_t nc);

/// Worker count a dispatch actually fans out to for `requested` workers:
/// min(requested, hardware concurrency) unless oversubscription is enabled.
/// Clamping keeps thread scaling monotone by construction on small hosts —
/// extra software threads on a saturated compute-bound kernel only add
/// context switches — and never changes results (the packed path is
/// bitwise-invariant across worker counts).
size_t GemmEffectiveWorkers(size_t requested);

/// When true, GemmEffectiveWorkers returns `requested` unclamped, so tests
/// can exercise real multi-worker execution (shared packed-B reads, the
/// TSan surface) even on single-core hosts. Resolved once from
/// SAMPNN_GEMM_OVERSUBSCRIBE; settable from tests.
bool GemmOversubscribe();
void SetGemmOversubscribe(bool on);

/// When true, every dense kernel takes its serial, scalar, fixed-order
/// path: no SIMD microkernel, no FMA contraction, no thread partitioning.
/// Results are then bitwise-identical across hosts, ISAs, and thread
/// settings — the mode checkpoint/resume verification runs under.
bool DeterministicKernels();
void SetDeterministicKernels(bool on);

/// The cancel context the current thread's GEMM dispatches poll, or nullptr.
/// The packed driver captures this pointer at dispatch time, so row-block
/// tasks fanned out to the kernel pool poll the dispatching request's
/// context — an expired serving request stops burning CPU between row
/// blocks instead of finishing a doomed product (DESIGN.md §10).
const CancelContext* CurrentKernelCancellation();

/// RAII installer for CurrentKernelCancellation on this thread. Nests:
/// restores the previous context on destruction. The context must outlive
/// the scope and every dispatch made inside it.
class ScopedKernelCancellation {
 public:
  explicit ScopedKernelCancellation(const CancelContext* ctx);
  ~ScopedKernelCancellation();
  ScopedKernelCancellation(const ScopedKernelCancellation&) = delete;
  ScopedKernelCancellation& operator=(const ScopedKernelCancellation&) = delete;

 private:
  const CancelContext* prev_;
};

}  // namespace sampnn
