#include "src/tensor/gemm.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>

#include "src/util/sync.h"

#include "src/obs/phase_sampler.h"
#include "src/telemetry/metrics_registry.h"
#include "src/telemetry/telemetry.h"
#include "src/tensor/aligned_buffer.h"
#include "src/tensor/kernel_config.h"
#include "src/tensor/kernels.h"
#include "src/tensor/packed_buffer_pool.h"
#include "src/util/check.h"
#include "src/util/deadline.h"
#include "src/util/threadpool.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SAMPNN_GEMM_X86 1
#include <immintrin.h>
#endif

namespace sampnn::gemm_internal {

namespace {

// Column chunking of the Nc loop: each Kc x Nc panel sweep is carved into
// up to this many column chunks per Mc row block, so the parallel task
// grid has slack in both dimensions — tall-skinny MLP products (one Mc
// block) still fan out across columns. Part of the fixed topology: the
// grid depends on shape and blocking only, never on the worker count.
constexpr size_t kColChunkTarget = 16;

// Skinny products share no packed B panel: with at most four row tiles,
// each B element is used at most 24 times, too few to repay copying it
// into a panel every task reads, so each task reads its B tiles in place
// or packs them itself (DESIGN.md §9).
constexpr size_t kSkinnyMaxRows = 4 * kMR;

// With more than one row tile, every B line of a tile is re-read once per
// row tile. A B row stride that is a multiple of 4 KiB maps those lines
// onto a few cache sets; on a 4-vCPU Xeon (48 KiB L1d, 2 MiB L2) 20-row
// products lost to the packed path at 8 and 16 KiB strides, so such
// products keep packing B. One row tile reads each line once and won at
// every stride (DESIGN.md §9).
constexpr size_t kAliasStrideFloats = 4096 / sizeof(float);

// Column tiles the one-row kernel covers per call (1 x 64 at kNR = 16).
constexpr size_t kRowKernelTiles = 4;

// In-place B rows lie B's row stride apart (4000 B in a 1000-wide matrix),
// a stride the hardware prefetchers do not follow, so the in-place 6 x 16
// kernel prefetches the tile row this many k steps ahead. On a 4-vCPU Xeon
// an 8-row forward of the paper's net went from 1.1 ms (2.4 ms in some
// processes) to 0.77 ms (DESIGN.md §9). A prefetch never changes a result.
constexpr size_t kPrefetchRows = 16;

// ---------------------------------------------------------------------------
// Microkernels: C_tile(kMR x kNR) += sum_p apanel[p][0..kMR) ⊗ B[p][0..kNR).
// B rows are `ldb` floats apart: kNR in a packed panel, or B's own row
// stride when a skinny product reads B in place. A is always packed
// (aligned, zero-padded), so the k-loop is two B loads + kMR broadcasts +
// 2*kMR FMAs per step with no edge branches; tails only affect the final
// store. Every C element is one FMA chain from zero over the Kc block, then
// one add into C, whichever kernel or B layout computes it. With
// `overwrite` (the first Kc block of a product that discards C's old
// contents) that add is to +0 instead of to C, so C is never read: the
// same bits a zeroed C gives, -0 sums and NaN garbage included.
// ---------------------------------------------------------------------------

#ifdef SAMPNN_GEMM_X86

// The value a block sum is added to: +0 on an overwriting block, else C.
__attribute__((target("avx2"))) inline __m256 CBase(const float* c,
                                                    bool overwrite) {
  return overwrite ? _mm256_setzero_ps() : _mm256_loadu_ps(c);
}

// kPrefetchB: B is read in place, so each k step prefetches the tile row
// kPrefetchRows rows ahead (its first and last float: an unaligned row may
// span two lines).
template <bool kPrefetchB>
__attribute__((target("avx2,fma"))) void MicroKernelAvx2(
    size_t kc, const float* ap, const float* bp, size_t ldb, float* c,
    size_t ldc, size_t mr, size_t nr, bool overwrite) {
  __m256 acc00 = _mm256_setzero_ps(), acc01 = _mm256_setzero_ps();
  __m256 acc10 = _mm256_setzero_ps(), acc11 = _mm256_setzero_ps();
  __m256 acc20 = _mm256_setzero_ps(), acc21 = _mm256_setzero_ps();
  __m256 acc30 = _mm256_setzero_ps(), acc31 = _mm256_setzero_ps();
  __m256 acc40 = _mm256_setzero_ps(), acc41 = _mm256_setzero_ps();
  __m256 acc50 = _mm256_setzero_ps(), acc51 = _mm256_setzero_ps();
  for (size_t p = 0; p < kc; ++p, ap += kMR, bp += ldb) {
    if constexpr (kPrefetchB) {
      const float* ahead = bp + kPrefetchRows * ldb;
      _mm_prefetch(reinterpret_cast<const char*>(ahead), _MM_HINT_T0);
      _mm_prefetch(reinterpret_cast<const char*>(ahead + kNR - 1), _MM_HINT_T0);
    }
    const __m256 b0 = _mm256_loadu_ps(bp);
    const __m256 b1 = _mm256_loadu_ps(bp + 8);
    __m256 a = _mm256_broadcast_ss(ap + 0);
    acc00 = _mm256_fmadd_ps(a, b0, acc00);
    acc01 = _mm256_fmadd_ps(a, b1, acc01);
    a = _mm256_broadcast_ss(ap + 1);
    acc10 = _mm256_fmadd_ps(a, b0, acc10);
    acc11 = _mm256_fmadd_ps(a, b1, acc11);
    a = _mm256_broadcast_ss(ap + 2);
    acc20 = _mm256_fmadd_ps(a, b0, acc20);
    acc21 = _mm256_fmadd_ps(a, b1, acc21);
    a = _mm256_broadcast_ss(ap + 3);
    acc30 = _mm256_fmadd_ps(a, b0, acc30);
    acc31 = _mm256_fmadd_ps(a, b1, acc31);
    a = _mm256_broadcast_ss(ap + 4);
    acc40 = _mm256_fmadd_ps(a, b0, acc40);
    acc41 = _mm256_fmadd_ps(a, b1, acc41);
    a = _mm256_broadcast_ss(ap + 5);
    acc50 = _mm256_fmadd_ps(a, b0, acc50);
    acc51 = _mm256_fmadd_ps(a, b1, acc51);
  }
  if (mr == kMR && nr == kNR) {
    float* cr = c;
    _mm256_storeu_ps(cr, _mm256_add_ps(CBase(cr, overwrite), acc00));
    _mm256_storeu_ps(cr + 8, _mm256_add_ps(CBase(cr + 8, overwrite), acc01));
    cr += ldc;
    _mm256_storeu_ps(cr, _mm256_add_ps(CBase(cr, overwrite), acc10));
    _mm256_storeu_ps(cr + 8, _mm256_add_ps(CBase(cr + 8, overwrite), acc11));
    cr += ldc;
    _mm256_storeu_ps(cr, _mm256_add_ps(CBase(cr, overwrite), acc20));
    _mm256_storeu_ps(cr + 8, _mm256_add_ps(CBase(cr + 8, overwrite), acc21));
    cr += ldc;
    _mm256_storeu_ps(cr, _mm256_add_ps(CBase(cr, overwrite), acc30));
    _mm256_storeu_ps(cr + 8, _mm256_add_ps(CBase(cr + 8, overwrite), acc31));
    cr += ldc;
    _mm256_storeu_ps(cr, _mm256_add_ps(CBase(cr, overwrite), acc40));
    _mm256_storeu_ps(cr + 8, _mm256_add_ps(CBase(cr + 8, overwrite), acc41));
    cr += ldc;
    _mm256_storeu_ps(cr, _mm256_add_ps(CBase(cr, overwrite), acc50));
    _mm256_storeu_ps(cr + 8, _mm256_add_ps(CBase(cr + 8, overwrite), acc51));
    return;
  }
  // Edge tile: spill the full register tile and add the live mr x nr
  // corner. The packed zero padding makes the dead lanes exact zeros.
  alignas(32) float tmp[kMR * kNR];
  _mm256_store_ps(tmp + 0 * kNR, acc00);
  _mm256_store_ps(tmp + 0 * kNR + 8, acc01);
  _mm256_store_ps(tmp + 1 * kNR, acc10);
  _mm256_store_ps(tmp + 1 * kNR + 8, acc11);
  _mm256_store_ps(tmp + 2 * kNR, acc20);
  _mm256_store_ps(tmp + 2 * kNR + 8, acc21);
  _mm256_store_ps(tmp + 3 * kNR, acc30);
  _mm256_store_ps(tmp + 3 * kNR + 8, acc31);
  _mm256_store_ps(tmp + 4 * kNR, acc40);
  _mm256_store_ps(tmp + 4 * kNR + 8, acc41);
  _mm256_store_ps(tmp + 5 * kNR, acc50);
  _mm256_store_ps(tmp + 5 * kNR + 8, acc51);
  for (size_t r = 0; r < mr; ++r) {
    for (size_t j = 0; j < nr; ++j) {
      c[r * ldc + j] = (overwrite ? 0.0f : c[r * ldc + j]) + tmp[r * kNR + j];
    }
  }
}

// One-row tile for m = 1 over in-place B: 1 x (kRowKernelTiles * kNR), one
// broadcast and eight 8-wide FMAs per k step. Each lane is the same chain
// as row 0 of the 6 x 16 tile, so the bits match it exactly.
__attribute__((target("avx2,fma"))) void RowKernelAvx2(size_t kc,
                                                       const float* ap,
                                                       const float* bp,
                                                       size_t ldb, float* c,
                                                       bool overwrite) {
  __m256 acc0 = _mm256_setzero_ps(), acc1 = _mm256_setzero_ps();
  __m256 acc2 = _mm256_setzero_ps(), acc3 = _mm256_setzero_ps();
  __m256 acc4 = _mm256_setzero_ps(), acc5 = _mm256_setzero_ps();
  __m256 acc6 = _mm256_setzero_ps(), acc7 = _mm256_setzero_ps();
  for (size_t p = 0; p < kc; ++p, ap += kMR, bp += ldb) {
    const __m256 a = _mm256_broadcast_ss(ap);
    acc0 = _mm256_fmadd_ps(a, _mm256_loadu_ps(bp), acc0);
    acc1 = _mm256_fmadd_ps(a, _mm256_loadu_ps(bp + 8), acc1);
    acc2 = _mm256_fmadd_ps(a, _mm256_loadu_ps(bp + 16), acc2);
    acc3 = _mm256_fmadd_ps(a, _mm256_loadu_ps(bp + 24), acc3);
    acc4 = _mm256_fmadd_ps(a, _mm256_loadu_ps(bp + 32), acc4);
    acc5 = _mm256_fmadd_ps(a, _mm256_loadu_ps(bp + 40), acc5);
    acc6 = _mm256_fmadd_ps(a, _mm256_loadu_ps(bp + 48), acc6);
    acc7 = _mm256_fmadd_ps(a, _mm256_loadu_ps(bp + 56), acc7);
  }
  _mm256_storeu_ps(c, _mm256_add_ps(CBase(c, overwrite), acc0));
  _mm256_storeu_ps(c + 8, _mm256_add_ps(CBase(c + 8, overwrite), acc1));
  _mm256_storeu_ps(c + 16, _mm256_add_ps(CBase(c + 16, overwrite), acc2));
  _mm256_storeu_ps(c + 24, _mm256_add_ps(CBase(c + 24, overwrite), acc3));
  _mm256_storeu_ps(c + 32, _mm256_add_ps(CBase(c + 32, overwrite), acc4));
  _mm256_storeu_ps(c + 40, _mm256_add_ps(CBase(c + 40, overwrite), acc5));
  _mm256_storeu_ps(c + 48, _mm256_add_ps(CBase(c + 48, overwrite), acc6));
  _mm256_storeu_ps(c + 56, _mm256_add_ps(CBase(c + 56, overwrite), acc7));
}

#endif  // SAMPNN_GEMM_X86

// Portable microkernel: same operand layout, same per-lane accumulation
// order; auto-vectorizes at the baseline ISA (and never FMA-contracts under
// the project's default flags, matching the scalar deterministic path's
// rounding per lane).
void MicroKernelPortable(size_t kc, const float* __restrict__ ap,
                         const float* __restrict__ bp, size_t ldb, float* c,
                         size_t ldc, size_t mr, size_t nr, bool overwrite) {
  float acc[kMR][kNR] = {};
  for (size_t p = 0; p < kc; ++p, ap += kMR, bp += ldb) {
    for (size_t r = 0; r < kMR; ++r) {
      const float a = ap[r];
      for (size_t j = 0; j < kNR; ++j) acc[r][j] += a * bp[j];
    }
  }
  for (size_t r = 0; r < mr; ++r) {
    for (size_t j = 0; j < nr; ++j) {
      c[r * ldc + j] = (overwrite ? 0.0f : c[r * ldc + j]) + acc[r][j];
    }
  }
}

using MicroKernelFn = void (*)(size_t, const float*, const float*, size_t,
                               float*, size_t, size_t, size_t, bool);
using RowKernelFn = void (*)(size_t, const float*, const float*, size_t,
                             float*, bool);

MicroKernelFn PickMicroKernel() {
#ifdef SAMPNN_GEMM_X86
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return MicroKernelAvx2<false>;
  }
#endif
  return MicroKernelPortable;
}

MicroKernelFn ActiveMicroKernel() {
  static const MicroKernelFn fn = PickMicroKernel();
  return fn;
}

// Full tiles of an in-place B: the AVX2 kernel with row prefetches, or the
// portable kernel.
MicroKernelFn ActiveInPlaceKernel() {
#ifdef SAMPNN_GEMM_X86
  if (ActiveMicroKernel() == MicroKernelAvx2<false>) {
    return MicroKernelAvx2<true>;
  }
#endif
  return ActiveMicroKernel();
}

// The one-row tile exists for the AVX2 kernel only; the portable path runs
// m = 1 through its 6 x 16 tile.
RowKernelFn ActiveRowKernel() {
#ifdef SAMPNN_GEMM_X86
  if (ActiveMicroKernel() == MicroKernelAvx2<false>) return RowKernelAvx2;
#endif
  return nullptr;
}

// ---------------------------------------------------------------------------
// Packing. Panels are written tile-contiguous — B as [jr-tile][p][kNR],
// A as [ir-tile][p][kMR] — so the microkernel streams both with unit
// stride. Out-of-range rows/columns are written as zeros, which keeps the
// microkernel edge-free and makes full-width loads on the last tile exact.
// ---------------------------------------------------------------------------

#ifdef SAMPNN_GEMM_X86

// Packs an 8 x 8 block of a column-strided B: loads 8 consecutive k values
// from each of 8 stored rows (`ld` floats apart) and transposes them in
// registers, so panel row q (at dst + q * kNR) gets the 8 values at k
// offset q.
__attribute__((target("avx2"))) void PackTransposed8x8Avx2(
    const float* src, size_t ld, float* dst) {
  const __m256 r0 = _mm256_loadu_ps(src + 0 * ld);
  const __m256 r1 = _mm256_loadu_ps(src + 1 * ld);
  const __m256 r2 = _mm256_loadu_ps(src + 2 * ld);
  const __m256 r3 = _mm256_loadu_ps(src + 3 * ld);
  const __m256 r4 = _mm256_loadu_ps(src + 4 * ld);
  const __m256 r5 = _mm256_loadu_ps(src + 5 * ld);
  const __m256 r6 = _mm256_loadu_ps(src + 6 * ld);
  const __m256 r7 = _mm256_loadu_ps(src + 7 * ld);
  // Pairs of rows interleaved, then quads, then the 128-bit halves.
  const __m256 t0 = _mm256_unpacklo_ps(r0, r1);
  const __m256 t1 = _mm256_unpackhi_ps(r0, r1);
  const __m256 t2 = _mm256_unpacklo_ps(r2, r3);
  const __m256 t3 = _mm256_unpackhi_ps(r2, r3);
  const __m256 t4 = _mm256_unpacklo_ps(r4, r5);
  const __m256 t5 = _mm256_unpackhi_ps(r4, r5);
  const __m256 t6 = _mm256_unpacklo_ps(r6, r7);
  const __m256 t7 = _mm256_unpackhi_ps(r6, r7);
  const __m256 q0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 q1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 q2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 q3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 q4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 q5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 q6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 q7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
  _mm256_storeu_ps(dst + 0 * kNR, _mm256_permute2f128_ps(q0, q4, 0x20));
  _mm256_storeu_ps(dst + 1 * kNR, _mm256_permute2f128_ps(q1, q5, 0x20));
  _mm256_storeu_ps(dst + 2 * kNR, _mm256_permute2f128_ps(q2, q6, 0x20));
  _mm256_storeu_ps(dst + 3 * kNR, _mm256_permute2f128_ps(q3, q7, 0x20));
  _mm256_storeu_ps(dst + 4 * kNR, _mm256_permute2f128_ps(q0, q4, 0x31));
  _mm256_storeu_ps(dst + 5 * kNR, _mm256_permute2f128_ps(q1, q5, 0x31));
  _mm256_storeu_ps(dst + 6 * kNR, _mm256_permute2f128_ps(q2, q6, 0x31));
  _mm256_storeu_ps(dst + 7 * kNR, _mm256_permute2f128_ps(q3, q7, 0x31));
}

#endif  // SAMPNN_GEMM_X86

using TransposeFn = void (*)(const float*, size_t, float*);

// The transposed pack runs wherever the AVX2 microkernel does.
TransposeFn ActiveTransposeKernel() {
#ifdef SAMPNN_GEMM_X86
  if (ActiveMicroKernel() == MicroKernelAvx2<false>) {
    return PackTransposed8x8Avx2;
  }
#endif
  return nullptr;
}

// Packs B column tiles [t0, t1) of the current Kc x Nc panel, tile t0 at
// `out`. Cooperative packing hands each worker a disjoint tile range of
// the shared buffer. A column-strided B (W^T in delta * W^T) would be
// gathered one float per stored row per k step, so its full tiles are
// packed 8 x 8 in registers instead; k and column remainders, and the
// portable build, keep the scalar loop.
void PackBTiles(const float* b, size_t b_rs, size_t b_cs, size_t pc,
                size_t kc, size_t jc, size_t nc, size_t t0, size_t t1,
                float* __restrict__ out) {
  const TransposeFn transpose = b_rs == 1 ? ActiveTransposeKernel() : nullptr;
  for (size_t t = t0; t < t1; ++t) {
    const size_t j0 = jc + t * kNR;
    const size_t jw = std::min(kNR, jc + nc - j0);
    float* tile = out + (t - t0) * kc * kNR;
    size_t p0 = 0;
    if (transpose != nullptr && jw == kNR) {
      for (; p0 + 8 <= kc; p0 += 8) {
        const float* src = b + pc + p0 + j0 * b_cs;
        transpose(src, b_cs, tile + p0 * kNR);
        transpose(src + 8 * b_cs, b_cs, tile + p0 * kNR + 8);
      }
    }
    for (size_t p = p0; p < kc; ++p) {
      const float* src = b + (pc + p) * b_rs + j0 * b_cs;
      float* dst = tile + p * kNR;
      if (b_cs == 1) {
        for (size_t j = 0; j < jw; ++j) dst[j] = src[j];
      } else {
        for (size_t j = 0; j < jw; ++j) dst[j] = src[j * b_cs];
      }
      for (size_t j = jw; j < kNR; ++j) dst[j] = 0.0f;
    }
  }
}

void PackA(const float* a, size_t a_rs, size_t a_cs, size_t ic, size_t mc,
           size_t pc, size_t kc, float alpha, float* __restrict__ out) {
  const size_t tiles = (mc + kMR - 1) / kMR;
  for (size_t t = 0; t < tiles; ++t) {
    const size_t i0 = ic + t * kMR;
    const size_t iw = std::min(kMR, ic + mc - i0);
    for (size_t p = 0; p < kc; ++p) {
      const float* src = a + i0 * a_rs + (pc + p) * a_cs;
      float* dst = out + (t * kc + p) * kMR;
      for (size_t r = 0; r < iw; ++r) dst[r] = alpha * src[r * a_rs];
      for (size_t r = iw; r < kMR; ++r) dst[r] = 0.0f;
    }
  }
}

// Per-thread A-pack scratch. Workers in the kernel pool are long-lived, so
// these warm up once and are reused across dispatches. The tag caches
// which (call, pc, ic) block currently sits in the scratch: consecutive
// column-chunk tasks of the same row block skip the re-pack.
thread_local AlignedBuffer t_apack;
struct ApackTag {
  uint64_t call = 0;
  size_t pc = 0;
  size_t ic = 0;
  bool valid = false;
};
thread_local ApackTag t_apack_tag;

// Per-thread copy of the one B tile a skinny product's task is working on
// when the tile cannot be read in place, one Kc block at a time.
thread_local AlignedBuffer t_btile;

// Distinguishes concurrent/successive GEMM calls in the A-pack cache tags.
std::atomic<uint64_t> g_call_serial{1};

// Blocked-nest telemetry, charged once per dispatch on scope exit (also on
// the cancellation early-outs): B panels packed (shared, or tile by tile
// in a skinny product's tasks), B panels read in place, A blocks packed
// (across all workers), and microtile-sweep tasks executed (one per Kc
// block with a shared panel, one for all of K in a skinny product).
struct BlockTally {
  explicit BlockTally(bool enabled) : on(enabled) {}
  ~BlockTally() {
    if (!on) return;
    static Counter& bp =
        MetricsRegistry::Get().GetCounter("tensor.gemm.pack_b_panels");
    static Counter& bi =
        MetricsRegistry::Get().GetCounter("tensor.gemm.inplace_b_panels");
    static Counter& ap =
        MetricsRegistry::Get().GetCounter("tensor.gemm.pack_a_panels");
    static Counter& bt =
        MetricsRegistry::Get().GetCounter("tensor.gemm.block_tasks");
    bp.Add(b_packs);
    bi.Add(b_in_place);
    ap.Add(a_packs.load(std::memory_order_relaxed));
    bt.Add(tasks.load(std::memory_order_relaxed));
  }
  const bool on;
  uint64_t b_packs = 0;
  uint64_t b_in_place = 0;
  std::atomic<uint64_t> a_packs{0};
  std::atomic<uint64_t> tasks{0};
};

// Kernel pools, one per worker count, created lazily and kept for the
// process lifetime (drained and joined by static destruction). Keeping a
// pool per size sidesteps destroy-while-in-use races when tests flip
// SetGemmThreads between dispatches.
ThreadPool& PoolFor(size_t threads) {
  // Ranked below threadpool.pool: constructing a ThreadPool under this lock
  // may touch the pool's own mutex on its exception path.
  static Mutex mu{"tensor.gemm_pools", lockrank::kGemmPools};
  static std::map<size_t, std::unique_ptr<ThreadPool>> pools;
  MutexLock lock(mu);
  auto& slot = pools[threads];
  if (slot == nullptr) slot = std::make_unique<ThreadPool>(threads);
  return *slot;
}

}  // namespace

bool MicroKernelIsAvx2() {
#ifdef SAMPNN_GEMM_X86
  return ActiveMicroKernel() == MicroKernelAvx2<false>;
#else
  return false;
#endif
}

void PackedGemmParallel(size_t m, size_t n, size_t k, float alpha,
                        const float* a, size_t a_rs, size_t a_cs,
                        const float* b, size_t b_rs, size_t b_cs, float* c,
                        size_t ldc, size_t threads, bool overwrite) {
  if (m == 0 || n == 0) return;
  SAMPNN_DCHECK(!overwrite || (k != 0 && alpha != 0.0f));
  if (k == 0 || alpha == 0.0f) return;  // C += 0
  // Serving-layer cancellation: the dispatching thread's context, if any,
  // is captured here and polled between panels and grid tasks (including
  // by the pool workers the tasks fan out to). A cancelled product leaves
  // C partially written (with `overwrite`, partly its old contents); the
  // cancellable caller discards it.
  const CancelContext* cancel = CurrentKernelCancellation();
  // Phase tag for /statusz: the dispatching thread advertises "gemm" with
  // the serving request id (0 outside the serving path) for the duration of
  // the product. Two relaxed stores; numerics are untouched.
  ScopedPhase gemm_phase("gemm", cancel != nullptr ? cancel->trace_id : 0);

  // One blocking snapshot per dispatch: mid-call SetGemmBlockSizes flips
  // never tear a product. kc participates in rounding; mc/nc (and the task
  // grid) never do.
  const GemmBlocking blk = GemmBlockSizes();
  const size_t kc_max = std::min(blk.kc, k);
  const size_t mc_max = blk.mc;
  const size_t nc_max = blk.nc;
  // Oversubscription never helps a compute-bound kernel, so the worker
  // count is clamped to hardware concurrency (monotone thread scaling by
  // construction); results are identical either way.
  const size_t workers = GemmEffectiveWorkers(threads);
  ThreadPool* pool = workers > 1 ? &PoolFor(workers) : nullptr;
  const uint64_t call_id =
      g_call_serial.fetch_add(1, std::memory_order_relaxed);
  BlockTally tally(TelemetryEnabled());

  // A skinny product never shares a packed B panel: with at most four row
  // tiles each B tile has one consumer, the task that owns its columns, so
  // that task reads the tile in place or packs it itself. Full tiles of a
  // row-major B are read in place unless more than one row tile would
  // re-read a 4 KiB-aliased stride; the rest (a column-strided B, an
  // aliased stride, a partial last tile) are packed tile by tile. The
  // choice depends on the operands alone, and every layout gives the same
  // bits.
  const bool skinny = m <= kSkinnyMaxRows;
  const bool b_in_place =
      skinny && b_cs == 1 && (m <= kMR || b_rs % kAliasStrideFloats != 0);
  const MicroKernelFn micro = ActiveMicroKernel();
  const MicroKernelFn in_place_micro = ActiveInPlaceKernel();
  const RowKernelFn row_kernel =
      m == 1 && b_in_place ? ActiveRowKernel() : nullptr;
  // Shared B-panel buffer for a taller product, checked out of the pool —
  // written once per (jc, pc) block, read concurrently by every grid task.
  // Hot-path GEMMs hit the freelist and allocate nothing; a skinny call
  // takes no pool lock.
  PackedBufferPool::Handle b_handle;
  if (!skinny) {
    b_handle = PackedBufferPool::Global().Acquire(
        (std::min(n, nc_max) + kNR - 1) / kNR * kNR * kc_max);
  }
  float* const bpack = b_handle.data();
  // Per-thread A scratch for this call's largest block: one Kc block with
  // a shared panel; all of K in a skinny product, where each task walks
  // every Kc block.
  const size_t a_pack_floats = (std::min(m, mc_max) + kMR - 1) / kMR * kMR *
                               (skinny ? k : kc_max);
  // Packs rows [ic, ic + mc) x columns [pc, pc + kc) of A into this
  // thread's scratch, unless it already holds them.
  auto pack_a = [&](size_t ic, size_t mc, size_t pc, size_t kc) {
    ApackTag& tag = t_apack_tag;
    if (!tag.valid || tag.call != call_id || tag.pc != pc || tag.ic != ic) {
      t_apack.GrowTo(a_pack_floats);
      PackA(a, a_rs, a_cs, ic, mc, pc, kc, alpha, t_apack.data());
      tag = {call_id, pc, ic, true};
      if (tally.on) tally.a_packs.fetch_add(1, std::memory_order_relaxed);
    }
    return static_cast<const float*>(t_apack.data());
  };
  // Runs every grid task, on the pool when there is one. Pool workers tag
  // themselves too, so a snapshot mid-product shows which threads are
  // inside this request's grid tasks.
  auto run_grid = [&](size_t tasks, const auto& task) {
    if (pool != nullptr && tasks > 1) {
      pool->ParallelFor(tasks, [&](size_t t) {
        ScopedPhase block_phase("gemm_block",
                                cancel != nullptr ? cancel->trace_id : 0);
        task(t);
      });
    } else {
      for (size_t t = 0; t < tasks; ++t) task(t);
    }
  };

  // Loop 5: B panel columns.
  for (size_t jc = 0; jc < n; jc += nc_max) {
    if (cancel != nullptr && cancel->ShouldStop()) return;
    const size_t nc = std::min(nc_max, n - jc);
    const size_t nc_tiles = (nc + kNR - 1) / kNR;
    // Fixed-topology task grid over (Mc row blocks) x (column chunks):
    // shaped by the operands and blocking only, so every worker count
    // walks the same tasks and every C element keeps one writer.
    size_t jchunk_tiles = (nc_tiles + kColChunkTarget - 1) / kColChunkTarget;
    // A one-row product's chunks hold whole one-row-kernel calls.
    if (row_kernel != nullptr) {
      jchunk_tiles = (jchunk_tiles + kRowKernelTiles - 1) / kRowKernelTiles *
                     kRowKernelTiles;
    }
    const size_t jchunks = (nc_tiles + jchunk_tiles - 1) / jchunk_tiles;
    const size_t ic_blocks = (m + mc_max - 1) / mc_max;
    const size_t tasks = ic_blocks * jchunks;

    if (skinny) {
      // With no shared panel to publish between Kc blocks, the panel fans
      // out once: each task takes its column tiles through every Kc block
      // in ascending order, which adds the same block sums to each C
      // element in the same order as the shared-panel nest. A tile that
      // cannot be read in place is packed by its task, one Kc block at a
      // time.
      (b_in_place ? tally.b_in_place : tally.b_packs) +=
          (k + kc_max - 1) / kc_max;
      run_grid(tasks, [&](size_t t) {
        if (tally.on) tally.tasks.fetch_add(1, std::memory_order_relaxed);
        const size_t ic = (t / jchunks) * mc_max;
        const size_t mc = std::min(mc_max, m - ic);
        const float* apack = pack_a(ic, mc, 0, k);
        const size_t jt0 = (t % jchunks) * jchunk_tiles;
        const size_t jt1 = std::min(nc_tiles, jt0 + jchunk_tiles);
        for (size_t jt = jt0; jt < jt1;) {
          const size_t jr = jt * kNR;
          const size_t nr = std::min(kNR, nc - jr);
          float* ct = c + ic * ldc + jc + jr;
          const bool one_row = row_kernel != nullptr &&
                               jt + kRowKernelTiles <= jt1 &&
                               jr + kRowKernelTiles * kNR <= nc;
          const bool pack_tile = !b_in_place || nr < kNR;
          for (size_t pc = 0; pc < k; pc += kc_max) {
            if (cancel != nullptr && cancel->ShouldStop()) return;
            const size_t kc = std::min(kc_max, k - pc);
            const bool first = overwrite && pc == 0;
            const float* ap = apack + pc * kMR;
            const float* bp = b + pc * b_rs + jc + jr;
            if (one_row) {
              row_kernel(kc, ap, bp, b_rs, ct, first);
              continue;
            }
            size_t ldb = b_rs;
            MicroKernelFn kernel = in_place_micro;
            if (pack_tile) {
              t_btile.GrowTo(kNR * kc_max);
              PackBTiles(b, b_rs, b_cs, pc, kc, jc, nc, jt, jt + 1,
                         t_btile.data());
              bp = t_btile.data();
              ldb = kNR;
              kernel = micro;
            }
            for (size_t ir = 0; ir < mc; ir += kMR) {
              kernel(kc, ap + (ir / kMR) * k * kMR, bp, ldb, ct + ir * ldc,
                     ldc, std::min(kMR, mc - ir), nr, first);
            }
          }
          jt += one_row ? kRowKernelTiles : 1;
        }
      });
      continue;
    }

    // Loop 4: k blocks; one shared B pack per iteration.
    for (size_t pc = 0; pc < k; pc += kc_max) {
      if (cancel != nullptr && cancel->ShouldStop()) return;
      const size_t kc = std::min(kc_max, k - pc);
      // The panel is packed cooperatively when enough tiles exist to
      // amortize the fan-out, otherwise on the dispatching thread; either
      // way every worker then reads the same shared panel (ParallelFor /
      // Submit publish the writes).
      if (pool != nullptr && nc_tiles >= 2 * workers) {
        pool->ParallelFor(workers, [&](size_t w) {
          const size_t t0 = nc_tiles * w / workers;
          PackBTiles(b, b_rs, b_cs, pc, kc, jc, nc, t0,
                     nc_tiles * (w + 1) / workers, bpack + t0 * kc * kNR);
        });
      } else {
        PackBTiles(b, b_rs, b_cs, pc, kc, jc, nc, 0, nc_tiles, bpack);
      }
      ++tally.b_packs;

      // Loops 3-1 as one grid task: pack (or reuse) the A block, then
      // sweep this chunk's microtiles.
      run_grid(tasks, [&](size_t t) {
        if (cancel != nullptr && cancel->ShouldStop()) return;
        if (tally.on) tally.tasks.fetch_add(1, std::memory_order_relaxed);
        const size_t ic = (t / jchunks) * mc_max;
        const size_t mc = std::min(mc_max, m - ic);
        const float* apack = pack_a(ic, mc, pc, kc);
        const size_t jt0 = (t % jchunks) * jchunk_tiles;
        const size_t jt1 = std::min(nc_tiles, jt0 + jchunk_tiles);
        for (size_t jt = jt0; jt < jt1; ++jt) {
          const size_t jr = jt * kNR;
          const size_t nr = std::min(kNR, nc - jr);
          const float* bp = bpack + jt * kc * kNR;
          for (size_t ir = 0; ir < mc; ir += kMR) {
            const size_t mr = std::min(kMR, mc - ir);
            const float* ap = apack + (ir / kMR) * kc * kMR;
            micro(kc, ap, bp, kNR, c + (ic + ir) * ldc + jc + jr, ldc, mr,
                  nr, overwrite && pc == 0);
          }
        }
      });
    }
  }
}

}  // namespace sampnn::gemm_internal

namespace sampnn {

void ParallelTasks(size_t n, uint64_t flops,
                   const std::function<void(size_t)>& fn) {
  const bool serial =
      DeterministicKernels() || flops < GemmParallelMinFlops();
  const size_t workers = serial ? 1 : GemmEffectiveWorkers(GemmThreads());
  if (workers <= 1 || n <= 1) {
    for (size_t t = 0; t < n; ++t) fn(t);
    return;
  }
  gemm_internal::PoolFor(workers).ParallelFor(n, fn);
}

void ParallelRanges(size_t n, const std::function<void(size_t, size_t)>& fn) {
  // Boundaries fall on multiples of this many elements, so every element
  // takes the same vector-body or scalar-tail path as in a one-range sweep.
  constexpr size_t kAlign = 16;
  const size_t workers =
      DeterministicKernels() ? 1 : GemmEffectiveWorkers(GemmThreads());
  const size_t ranges = std::min(workers, n / kParallelRangeGrain);
  if (ranges <= 1) {
    if (n != 0) fn(0, n);
    return;
  }
  // Range r covers [bound(r), bound(r + 1)); n >= ranges * grain, so each
  // holds at least one grain.
  const size_t blocks = n / kAlign;
  auto bound = [&](size_t r) {
    return r == ranges ? n : blocks * r / ranges * kAlign;
  };
  gemm_internal::PoolFor(workers).ParallelFor(
      ranges, [&](size_t r) { fn(bound(r), bound(r + 1)); });
}

}  // namespace sampnn
