// The blocked five-loop GEMM nest: conformance of the Mc/Kc/Nc blocking
// (edge tiles, awkward shapes, transposed operands) against the
// double-precision oracle, bitwise thread-invariance of the fixed task
// grid, skinny products that read B in place or pack it task by task
// matching shared-panel ones bit for bit, concurrent dispatches over the
// shared packed-B pool (the TSan surface the shared panel adds),
// cancellation mid-product, the panel counters, block-size normalization,
// the worker clamp, and the range splitter the dense optimizers run on.

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/telemetry/metrics_registry.h"
#include "src/telemetry/telemetry.h"
#include "src/tensor/kernel_config.h"
#include "src/tensor/kernels.h"
#include "src/tensor/packed_buffer_pool.h"
#include "src/util/deadline.h"
#include "src/util/rng.h"
#include "tests/tensor/kernels_reference.h"

namespace sampnn {
namespace {

class GemmBlockedTest : public ::testing::Test {
 protected:
  void TearDown() override {
    SetDeterministicKernels(false);
    SetGemmThreads(0);
    SetGemmParallelMinFlops(0);
    SetGemmBlockSizes(0, 0, 0);
    SetGemmOversubscribe(false);
  }
};

bool BitwiseEqual(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

// The first `rows` rows of `x`.
Matrix TopRows(const Matrix& x, size_t rows) {
  Matrix out(rows, x.cols());
  std::memcpy(out.data(), x.data(), rows * x.cols() * sizeof(float));
  return out;
}

void ExpectClose(const Matrix& got, const Matrix& want, size_t k) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  const float tol = 1e-4f * (1.0f + std::sqrt(static_cast<float>(k)));
  for (size_t i = 0; i < got.rows(); ++i) {
    for (size_t j = 0; j < got.cols(); ++j) {
      ASSERT_NEAR(got(i, j), want(i, j), tol)
          << "at (" << i << ", " << j << ") with k=" << k;
    }
  }
}

// Tiny blocks force every loop of the nest to wrap — a 97-deep product
// crosses six Kc boundaries, a 65-wide one three Nc panels — so the sweep
// exercises every interior/edge tile combination the derived (large)
// blocking would never reach at test sizes.
TEST_F(GemmBlockedTest, AwkwardShapeSweepAgainstOracle) {
  SetDeterministicKernels(false);
  SetGemmParallelMinFlops(1);
  SetGemmBlockSizes(12, 16, 32);
  SetGemmOversubscribe(true);  // real multi-worker nests even on 1 core
  const size_t dims[] = {1, 5, 6, 7, 17, 63, 65, 97};
  Rng rng(20250808);
  for (size_t m : dims) {
    for (size_t n : dims) {
      for (size_t k : dims) {
        // Randomize the rest of the configuration per shape: thread count,
        // alpha/beta, and which of the 512 shape triples get the transposed
        // variants (the full cross product would be 4k products).
        const size_t threads = 1 + rng.NextBounded(4);
        SetGemmThreads(threads);
        const float alpha = 0.25f * (1 + static_cast<int>(rng.NextBounded(8)));
        const float beta = rng.NextBounded(2) == 0 ? 0.0f : -0.5f;
        Matrix a = Matrix::RandomGaussian(m, k, rng);
        Matrix b = Matrix::RandomGaussian(k, n, rng);
        Matrix c0 = Matrix::RandomGaussian(m, n, rng);

        Matrix got = c0;
        Gemm(a, b, &got, alpha, beta);
        Matrix want = c0;
        reference::Gemm(a, b, &want, alpha, beta);
        ExpectClose(got, want, k);

        if (rng.NextBounded(4) == 0) {
          Matrix at = Matrix::RandomGaussian(k, m, rng);
          Matrix bk = Matrix::RandomGaussian(k, n, rng);
          Matrix got_t(m, n);
          GemmTransA(at, bk, &got_t, alpha, 0.0f);
          Matrix want_t(m, n);
          reference::GemmTransA(at, bk, &want_t, alpha, 0.0f);
          ExpectClose(got_t, want_t, k);
        }
        if (rng.NextBounded(4) == 0) {
          Matrix bt = Matrix::RandomGaussian(n, k, rng);
          Matrix got_t = c0;
          GemmTransB(a, bt, &got_t, alpha, beta);
          Matrix want_t = c0;
          reference::GemmTransB(a, bt, &want_t, alpha, beta);
          ExpectClose(got_t, want_t, k);
        }
      }
    }
  }
}

// The task grid is a function of shape and blocking only, and every C
// element keeps one writer accumulating in pc order — so 1, 2, and 4
// workers must produce identical bits, including with blocks small enough
// that one product spans many panels, and with beta = 0, where one worker
// zeroes C and several overwrite it. The three orientations of one product
// pack the same values, so they agree bit for bit too: 67 rows share a
// panel, 20 rows pack (A^T * B's B) or transpose (A * B^T's B) per task.
TEST_F(GemmBlockedTest, WorkerCountInvariantBits) {
  SetDeterministicKernels(false);
  SetGemmParallelMinFlops(1);
  SetGemmBlockSizes(12, 16, 32);
  SetGemmOversubscribe(true);
  Rng rng(4711);
  const size_t k = 129, n = 83;
  for (const size_t m : {67, 20}) {
    Matrix a = Matrix::RandomGaussian(m, k, rng);
    Matrix b = Matrix::RandomGaussian(k, n, rng);
    Matrix c0 = Matrix::RandomGaussian(m, n, rng);
    const Matrix at = a.Transposed();
    const Matrix bt = b.Transposed();
    for (const float beta : {1.0f, 0.0f}) {
      SCOPED_TRACE(testing::Message() << "m=" << m << " beta=" << beta);
      auto run = [&](size_t threads) {
        SetGemmThreads(threads);
        std::array<Matrix, 3> c = {c0, c0, c0};
        Gemm(a, b, &c[0], 0.75f, beta);
        GemmTransA(at, b, &c[1], 0.75f, beta);
        GemmTransB(a, bt, &c[2], 0.75f, beta);
        return c;
      };
      const std::array<Matrix, 3> r1 = run(1);
      for (const size_t threads : {2, 4}) {
        const std::array<Matrix, 3> r = run(threads);
        for (size_t op = 0; op < 3; ++op) {
          EXPECT_TRUE(BitwiseEqual(r1[op], r[op]))
              << "op=" << op << " threads=" << threads;
        }
      }
      EXPECT_TRUE(BitwiseEqual(r1[0], r1[1]));
      EXPECT_TRUE(BitwiseEqual(r1[0], r1[2]));
    }
  }
}

// Changing Mc/Nc (the grid partition) must not change bits either — only
// Kc regroups partial sums. This pins the documented determinism contract.
TEST_F(GemmBlockedTest, McNcPartitioningDoesNotChangeBits) {
  SetDeterministicKernels(false);
  SetGemmParallelMinFlops(1);
  SetGemmOversubscribe(true);
  SetGemmThreads(3);
  Rng rng(999);
  const size_t m = 50, k = 64, n = 70;
  Matrix a = Matrix::RandomGaussian(m, k, rng);
  Matrix b = Matrix::RandomGaussian(k, n, rng);
  Matrix c0 = Matrix::RandomGaussian(m, n, rng);

  auto run = [&](size_t mc, size_t nc) {
    SetGemmBlockSizes(mc, /*kc=*/16, nc);
    Matrix c = c0;
    Gemm(a, b, &c, 1.0f, 1.0f);
    return c;
  };
  const Matrix base = run(12, 32);
  EXPECT_TRUE(BitwiseEqual(base, run(24, 32)));
  EXPECT_TRUE(BitwiseEqual(base, run(12, 64)));
  EXPECT_TRUE(BitwiseEqual(base, run(600, 4096)));
}

// A product with at most 6 rows reads row-major B in place (one row on the
// 1 x 64 tile), and so does one with at most 24 rows unless B's row stride
// is a multiple of 4 KiB; other skinny products pack B tile by tile in
// their tasks, and a taller one packs a shared panel. delta * W^T
// (GemmTransB) reads a column-strided B, which every skinny task packs
// with 8 x 8 transposes. Every element is the same FMA chain over the same
// Kc blocks on every path, so each skinny product, in either orientation,
// must equal the top rows of a tall one bit for bit. k = 601 crosses a Kc
// boundary at every derived blocking (kc <= 512) and leaves a last Kc
// block that is not a multiple of 8 (the transposed pack's scalar rest);
// the small blocking also splits 20 rows into two Mc blocks. Widths: 1000
// and 83 end in a partial tile, 1024 is a 4 KiB row stride and 512 a
// 2 KiB one, 64 is one row tile, 10 is only an edge tile. A one-row
// product sent to VecMat, which sums all k terms in one chain, would fail
// here.
TEST_F(GemmBlockedTest, SkinnyProductsEqualTopRowsOfTallProduct) {
  SetDeterministicKernels(false);
  SetGemmParallelMinFlops(1);
  SetGemmOversubscribe(true);
  constexpr size_t kTall = 31;
  constexpr size_t k = 601;
  Rng rng(8675309);
  for (const GemmBlocking blk :
       {GemmBlocking{0, 0, 0}, GemmBlocking{12, 128, 256}}) {
    SetGemmBlockSizes(blk.mc, blk.kc, blk.nc);
    for (const size_t n : {10, 64, 83, 512, 1000, 1024}) {
      const Matrix a = Matrix::RandomGaussian(kTall, k, rng);
      const Matrix b = Matrix::RandomGaussian(k, n, rng);
      const Matrix bt = b.Transposed();
      for (const size_t threads : {1, 4}) {
        SetGemmThreads(threads);
        Matrix tall(kTall, n);
        Gemm(a, b, &tall);
        for (size_t m = 1; m <= 24; ++m) {
          const Matrix top = TopRows(tall, m);
          Matrix skinny(m, n);
          Gemm(TopRows(a, m), b, &skinny);
          ASSERT_TRUE(BitwiseEqual(skinny, top))
              << "m=" << m << " n=" << n << " threads=" << threads
              << " mc=" << blk.mc << " kc=" << blk.kc;
          Matrix skinny_tb(m, n);
          GemmTransB(TopRows(a, m), bt, &skinny_tb);
          ASSERT_TRUE(BitwiseEqual(skinny_tb, top) &&
                      BitwiseEqual(skinny_tb, skinny))
              << "GemmTransB m=" << m << " n=" << n << " threads=" << threads
              << " mc=" << blk.mc << " kc=" << blk.kc;
        }
      }
    }
  }
}

// tensor.gemm.pack_b_panels counts only panels that were packed; the
// panels a skinny product reads in place count as
// tensor.gemm.inplace_b_panels (packing their partial edge tile does not
// make them packed). A skinny product whose tasks pack B tile by tile
// (delta * W^T: column-strided B) counts one packed panel per Kc block per
// Nc panel, as a shared panel does. No skinny call touches the
// packed-buffer pool.
TEST_F(GemmBlockedTest, PanelCountersSplitPackedFromInPlace) {
  const bool telemetry_was_on = TelemetryEnabled();
  SetTelemetryEnabled(true);
  SetDeterministicKernels(false);
  SetGemmParallelMinFlops(1);
  SetGemmBlockSizes(12, 16, 32);
  Counter& packed =
      MetricsRegistry::Get().GetCounter("tensor.gemm.pack_b_panels");
  Counter& in_place =
      MetricsRegistry::Get().GetCounter("tensor.gemm.inplace_b_panels");
  PackedBufferPool& pool = PackedBufferPool::Global();
  Rng rng(77);
  // k = 40 is three Kc blocks; n = 64 is two Nc panels: six panels a call.
  const Matrix b = Matrix::RandomGaussian(40, 64, rng);
  const Matrix w = Matrix::RandomGaussian(64, 40, rng);
  // {packed, in place, pool checkouts} of one product with m rows.
  auto run = [&](size_t m, bool trans_b) {
    const uint64_t p0 = packed.Value(), i0 = in_place.Value();
    const uint64_t checkouts0 = pool.Allocations() + pool.Reuses();
    Matrix c(m, 64);
    if (trans_b) {
      GemmTransB(Matrix::RandomGaussian(m, 40, rng), w, &c);
    } else {
      Gemm(Matrix::RandomGaussian(m, 40, rng), b, &c);
    }
    return std::array<uint64_t, 3>{
        packed.Value() - p0, in_place.Value() - i0,
        pool.Allocations() + pool.Reuses() - checkouts0};
  };
  EXPECT_EQ(run(20, false), (std::array<uint64_t, 3>{0, 6, 0}));
  EXPECT_EQ(run(1, false), (std::array<uint64_t, 3>{0, 6, 0}));
  EXPECT_EQ(run(25, false), (std::array<uint64_t, 3>{6, 0, 1}));
  EXPECT_EQ(run(20, true), (std::array<uint64_t, 3>{6, 0, 0}));
  SetTelemetryEnabled(telemetry_was_on);
}

// Concurrent dispatches from independent caller threads, each fanning out
// to its own multi-worker grid over a pool-checked-out shared B panel.
// This is the shared-state surface the pool adds; run under TSan via the
// tensor label. Each caller verifies its own numerical result.
TEST_F(GemmBlockedTest, ConcurrentBlockedDispatchesShareThePool) {
  SetDeterministicKernels(false);
  SetGemmParallelMinFlops(1);
  SetGemmBlockSizes(12, 16, 32);
  SetGemmOversubscribe(true);
  SetGemmThreads(2);
  constexpr int kCallers = 4;
  constexpr int kReps = 8;
  Rng seed_rng(314159);
  std::vector<uint64_t> seeds;
  for (int i = 0; i < kCallers; ++i) seeds.push_back(seed_rng.NextU64());

  std::atomic<int> failures{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      Rng rng(seeds[t]);
      const size_t m = 30 + 7 * t, k = 65 + 5 * t, n = 40 + 9 * t;
      Matrix a = Matrix::RandomGaussian(m, k, rng);
      Matrix b = Matrix::RandomGaussian(k, n, rng);
      Matrix want(m, n);
      reference::Gemm(a, b, &want, 1.0f, 0.0f);
      const float tol = 1e-4f * (1.0f + std::sqrt(static_cast<float>(k)));
      for (int rep = 0; rep < kReps; ++rep) {
        Matrix c(m, n);
        Gemm(a, b, &c, 1.0f, 0.0f);
        for (size_t i = 0; i < m; ++i) {
          for (size_t j = 0; j < n; ++j) {
            if (std::abs(c(i, j) - want(i, j)) > tol) {
              failures.fetch_add(1, std::memory_order_relaxed);
              return;
            }
          }
        }
      }
    });
  }
  for (auto& th : callers) th.join();
  EXPECT_EQ(failures.load(), 0);
}

// Steady-state dispatches must not allocate panel buffers: after a warmup
// checkout returns its buffer to the freelist, repeat GEMMs are served
// entirely from the pool.
TEST_F(GemmBlockedTest, SteadyStateGemmReusesPooledPanels) {
  SetDeterministicKernels(false);
  SetGemmParallelMinFlops(1);
  SetGemmBlockSizes(12, 16, 32);
  Rng rng(2718);
  Matrix a = Matrix::RandomGaussian(48, 64, rng);
  Matrix b = Matrix::RandomGaussian(64, 48, rng);
  Matrix c(48, 48);
  Gemm(a, b, &c, 1.0f, 0.0f);  // warmup: seeds the freelist

  PackedBufferPool& pool = PackedBufferPool::Global();
  const uint64_t allocs_before = pool.Allocations();
  const uint64_t reuses_before = pool.Reuses();
  for (int i = 0; i < 16; ++i) Gemm(a, b, &c, 1.0f, 0.0f);
  EXPECT_EQ(pool.Allocations(), allocs_before);
  EXPECT_GE(pool.Reuses(), reuses_before + 16);
}

TEST_F(GemmBlockedTest, PoolAcquireGrowsAndRecycles) {
  PackedBufferPool pool;
  EXPECT_EQ(pool.IdleCount(), 0u);
  {
    PackedBufferPool::Handle h = pool.Acquire(1024);
    EXPECT_NE(h.data(), nullptr);
    EXPECT_GE(h.size(), 1024u);
    // 64-byte alignment contract for the aligned microkernel loads.
    EXPECT_EQ(reinterpret_cast<uintptr_t>(h.data()) % 64, 0u);
  }
  EXPECT_EQ(pool.IdleCount(), 1u);
  EXPECT_EQ(pool.Allocations(), 1u);
  {
    // A bigger request reuses (and grows) the idle buffer, no fresh alloc.
    PackedBufferPool::Handle h = pool.Acquire(4096);
    EXPECT_GE(h.size(), 4096u);
    EXPECT_EQ(pool.Allocations(), 1u);
    EXPECT_EQ(pool.Reuses(), 1u);
    EXPECT_EQ(pool.IdleCount(), 0u);
  }
  EXPECT_EQ(pool.IdleCount(), 1u);
}

// A cancelled context stops the product between panels: with beta = 0.5,
// C keeps its beta-scaled value and the product is never added, and
// nothing crashes or deadlocks when the cancel lands while the grid is
// mid-flight. The same holds for a packed B (m = 60), an in-place one
// (m = 20) and the one-row tile (m = 1). C is unspecified after a
// cancelled beta = 0 product on the pool, which skips the memset and
// writes each block once (it may keep old contents), so the mid-flight
// products' C is never inspected; the caller discards a cancelled product.
TEST_F(GemmBlockedTest, CancellationStopsTheNest) {
  SetDeterministicKernels(false);
  SetGemmParallelMinFlops(1);
  SetGemmBlockSizes(12, 16, 32);
  SetGemmOversubscribe(true);
  SetGemmThreads(2);
  Rng rng(1618);
  for (const size_t m : {60, 20, 1}) {
    SCOPED_TRACE(m);
    const size_t k = 96, n = 64;
    Matrix a = Matrix::RandomGaussian(m, k, rng);
    Matrix b = Matrix::RandomGaussian(k, n, rng);
    Matrix c0 = Matrix::RandomGaussian(m, n, rng);

    // Pre-cancelled: beta is applied by the dispatch wrapper, then the nest
    // early-outs before any microkernel writes.
    CancelContext cancelled;
    cancelled.token.Cancel();
    {
      ScopedKernelCancellation scope(&cancelled);
      Matrix c = c0;
      Gemm(a, b, &c, 1.0f, 0.5f);
      Matrix want = c0;
      for (size_t i = 0; i < m; ++i) {
        for (size_t j = 0; j < n; ++j) want(i, j) *= 0.5f;
      }
      EXPECT_TRUE(BitwiseEqual(c, want));
    }

    // Mid-flight: cancel from another thread while products stream; the
    // loop must terminate promptly and later (uncancelled) products are
    // intact.
    CancelContext live;
    {
      ScopedKernelCancellation scope(&live);
      std::thread canceller([&] { live.token.Cancel(); });
      for (int i = 0; i < 50 && !live.ShouldStop(); ++i) {
        Matrix c = c0;
        Gemm(a, b, &c, 1.0f, 0.0f);
      }
      canceller.join();
    }
    Matrix c = c0;
    Gemm(a, b, &c, 1.0f, 0.0f);
    Matrix want(m, n);
    reference::Gemm(a, b, &want, 1.0f, 0.0f);
    ExpectClose(c, want, k);
  }
}

TEST_F(GemmBlockedTest, BlockSizeOverridesAreNormalized) {
  // Raw overrides are rounded down to the microtile units (mc: 6, kc: 8,
  // nc: 16) and clamped to at least one unit.
  SetGemmBlockSizes(13, 20, 40);
  GemmBlocking blk = GemmBlockSizes();
  EXPECT_EQ(blk.mc, 12u);
  EXPECT_EQ(blk.kc, 16u);
  EXPECT_EQ(blk.nc, 32u);
  SetGemmBlockSizes(1, 1, 1);
  blk = GemmBlockSizes();
  EXPECT_EQ(blk.mc, 6u);
  EXPECT_EQ(blk.kc, 8u);
  EXPECT_EQ(blk.nc, 16u);
  // Zeroed fields re-derive from cache geometry; derived values keep the
  // same invariants.
  SetGemmBlockSizes(0, 0, 0);
  blk = GemmBlockSizes();
  EXPECT_GT(blk.mc, 0u);
  EXPECT_GT(blk.kc, 0u);
  EXPECT_GT(blk.nc, 0u);
  EXPECT_EQ(blk.mc % 6, 0u);
  EXPECT_EQ(blk.kc % 8, 0u);
  EXPECT_EQ(blk.nc % 16, 0u);
}

TEST_F(GemmBlockedTest, EffectiveWorkersClampToHardware) {
  const size_t hw =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  EXPECT_EQ(GemmEffectiveWorkers(1), 1u);
  EXPECT_EQ(GemmEffectiveWorkers(hw), hw);
  EXPECT_EQ(GemmEffectiveWorkers(hw * 4), hw);
  SetGemmOversubscribe(true);
  EXPECT_EQ(GemmEffectiveWorkers(hw * 4), hw * 4);
  SetGemmOversubscribe(false);
  EXPECT_EQ(GemmEffectiveWorkers(hw * 4), hw);
}

// The dense optimizers' sweeps: contiguous ranges that cover [0, n) once,
// start on multiples of 16, hold at least one grain each, and number at
// most the effective worker count. A sweep below two grains runs inline.
TEST_F(GemmBlockedTest, ParallelRangesSplitsOnGrainAndAlignment) {
  SetGemmOversubscribe(true);
  SetGemmThreads(4);
  struct Range {
    size_t begin, end;
  };
  auto split = [](size_t n, std::vector<Range>* ranges, bool* inline_only) {
    std::mutex mu;
    const std::thread::id caller = std::this_thread::get_id();
    *inline_only = true;
    ParallelRanges(n, [&](size_t begin, size_t end) {
      std::lock_guard<std::mutex> lock(mu);
      ranges->push_back({begin, end});
      if (std::this_thread::get_id() != caller) *inline_only = false;
    });
    std::sort(ranges->begin(), ranges->end(),
              [](const Range& x, const Range& y) { return x.begin < y.begin; });
  };

  for (const size_t n : {size_t{0}, size_t{1000}, kParallelRangeGrain - 1,
                         2 * kParallelRangeGrain - 1}) {
    std::vector<Range> ranges;
    bool inline_only = false;
    split(n, &ranges, &inline_only);
    EXPECT_TRUE(inline_only) << n;
    if (n == 0) {
      EXPECT_TRUE(ranges.empty());
    } else {
      ASSERT_EQ(ranges.size(), 1u) << n;
      EXPECT_EQ(ranges[0].begin, 0u);
      EXPECT_EQ(ranges[0].end, n);
    }
  }

  // 784 x 1000 (a paper layer) and an odd length just past three grains.
  for (const size_t n : {size_t{784000}, 3 * kParallelRangeGrain + 5}) {
    std::vector<Range> ranges;
    bool inline_only = false;
    split(n, &ranges, &inline_only);
    ASSERT_EQ(ranges.size(), std::min<size_t>(4, n / kParallelRangeGrain));
    EXPECT_FALSE(inline_only);
    size_t next = 0;
    for (const Range& r : ranges) {
      EXPECT_EQ(r.begin, next);
      EXPECT_EQ(r.begin % 16, 0u);
      EXPECT_GE(r.end - r.begin, kParallelRangeGrain);
      next = r.end;
    }
    EXPECT_EQ(next, n);
  }

  // One worker, or the deterministic kernels, never fan out.
  SetGemmThreads(1);
  std::vector<Range> ranges;
  bool inline_only = false;
  split(784000, &ranges, &inline_only);
  EXPECT_TRUE(inline_only);
  EXPECT_EQ(ranges.size(), 1u);
  SetGemmThreads(4);
  SetDeterministicKernels(true);
  ranges.clear();
  split(784000, &ranges, &inline_only);
  EXPECT_TRUE(inline_only);
  EXPECT_EQ(ranges.size(), 1u);
}

TEST_F(GemmBlockedTest, CacheGeometryDetectionIsSane) {
  const CacheGeometry geo = DetectCacheGeometry();
  // Zero means "unknown" (derivation falls back to defaults); any detected
  // level must be a plausible size.
  if (geo.l1d_bytes != 0) {
    EXPECT_GE(geo.l1d_bytes, 4u * 1024);
    EXPECT_LE(geo.l1d_bytes, 1u * 1024 * 1024);
  }
  if (geo.l2_bytes != 0) {
    EXPECT_GE(geo.l2_bytes, 64u * 1024);
  }
  const GemmBlocking blk = GemmBlockSizes();
  // The packed B panel (kc x nc floats) stays within a sane bound even on
  // huge-L3 hosts: the derivation caps its budget at 16 MB.
  EXPECT_LE(blk.kc * blk.nc * sizeof(float), 16u * 1024 * 1024);
}

}  // namespace
}  // namespace sampnn
