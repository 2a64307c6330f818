// Threading behavior of the packed GEMM path: bitwise invariance across
// worker counts, concurrent dispatch from independent caller threads (the
// TSan surface), serial/parallel dispatch telemetry, deterministic-mode
// equivalence, and the 64-byte alignment contract the microkernel's
// aligned packs rely on.

#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/tensor/kernel_config.h"
#include "src/tensor/kernels.h"
#include "src/telemetry/metrics_registry.h"
#include "src/telemetry/telemetry.h"
#include "src/util/rng.h"
#include "tests/tensor/kernels_reference.h"

namespace sampnn {
namespace {

class GemmParallelTest : public ::testing::Test {
 protected:
  void TearDown() override {
    SetDeterministicKernels(false);
    SetGemmThreads(0);
    SetGemmParallelMinFlops(0);
  }
};

bool BitwiseEqual(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

// Row-block partitioning gives every output element exactly one writer that
// accumulates in a fixed order, so the packed path must produce identical
// bits no matter how many workers split the rows.
TEST_F(GemmParallelTest, ThreadCountDoesNotChangeBits) {
  SetDeterministicKernels(false);
  SetGemmParallelMinFlops(1);  // parallel path even for small products
  Rng rng(8086);
  const size_t m = 61, k = 129, n = 47;
  Matrix a = Matrix::RandomGaussian(m, k, rng);
  Matrix b = Matrix::RandomGaussian(k, n, rng);
  // GemmTransA: A(k x m), B(k x n) -> C(m x n). GemmTransB: B^T is (n x k).
  Matrix at = Matrix::RandomGaussian(k, m, rng);
  Matrix ta_b = Matrix::RandomGaussian(k, n, rng);
  Matrix bt = Matrix::RandomGaussian(n, k, rng);
  Matrix c0 = Matrix::RandomGaussian(m, n, rng);

  struct Results {
    Matrix gemm, trans_a, trans_b;
  };
  auto run_all = [&](size_t threads) {
    SetGemmThreads(threads);
    Results r;
    r.gemm = c0;
    Gemm(a, b, &r.gemm, 0.5f, 1.0f);
    r.trans_a = Matrix(m, n);
    GemmTransA(at, ta_b, &r.trans_a, 1.0f, 0.0f);
    r.trans_b = c0;
    GemmTransB(a, bt, &r.trans_b, -1.0f, 0.5f);
    return r;
  };

  const Results r1 = run_all(1);
  const Results r2 = run_all(2);
  const Results r4 = run_all(4);
  EXPECT_TRUE(BitwiseEqual(r1.gemm, r2.gemm));
  EXPECT_TRUE(BitwiseEqual(r1.gemm, r4.gemm));
  EXPECT_TRUE(BitwiseEqual(r1.trans_a, r2.trans_a));
  EXPECT_TRUE(BitwiseEqual(r1.trans_a, r4.trans_a));
  EXPECT_TRUE(BitwiseEqual(r1.trans_b, r2.trans_b));
  EXPECT_TRUE(BitwiseEqual(r1.trans_b, r4.trans_b));
}

// Several caller threads dispatching partitioned GEMMs into the shared
// kernel pool at once: each owns its operands and output, so the only
// shared state is the pool and the thread-local pack buffers. This is the
// test TSan watches.
TEST_F(GemmParallelTest, ConcurrentCallersAreRaceFree) {
  SetDeterministicKernels(false);
  SetGemmThreads(4);
  SetGemmParallelMinFlops(1);
  constexpr int kCallers = 4;
  constexpr int kRepeats = 3;
  std::vector<Matrix> results(kCallers);
  std::vector<Matrix> expected(kCallers);
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([t, &results, &expected] {
      Rng rng(1000 + t);
      const size_t m = 33 + t, k = 65 + t, n = 29 + t;
      Matrix a = Matrix::RandomGaussian(m, k, rng);
      Matrix b = Matrix::RandomGaussian(k, n, rng);
      Matrix c(m, n);
      for (int r = 0; r < kRepeats; ++r) {
        Gemm(a, b, &c, 1.0f, 0.0f);
      }
      Matrix want(m, n);
      reference::Gemm(a, b, &want, 1.0f, 0.0f);
      results[t] = std::move(c);
      expected[t] = std::move(want);
    });
  }
  for (auto& th : callers) th.join();
  for (int t = 0; t < kCallers; ++t) {
    ASSERT_EQ(results[t].rows(), expected[t].rows());
    for (size_t i = 0; i < results[t].size(); ++i) {
      EXPECT_NEAR(results[t].data()[i], expected[t].data()[i], 1e-3f)
          << "caller " << t << " index " << i;
    }
  }
}

// Products under the FLOP threshold stay serial and are tallied as such;
// big products go parallel. Counters are process-global, so assert deltas.
TEST_F(GemmParallelTest, DispatchCountersTrackThreshold) {
  const bool telemetry_was_on = TelemetryEnabled();
  SetTelemetryEnabled(true);
  SetDeterministicKernels(false);
  SetGemmThreads(4);
  SetGemmParallelMinFlops(2ull * 64 * 64 * 64);  // 512 KFLOP threshold

  Counter& parallel =
      MetricsRegistry::Get().GetCounter("tensor.gemm.parallel_dispatches");
  Counter& serial =
      MetricsRegistry::Get().GetCounter("tensor.gemm.serial_dispatches");
  const uint64_t p0 = parallel.Value();
  const uint64_t s0 = serial.Value();

  Rng rng(404);
  Matrix small_a = Matrix::RandomGaussian(8, 8, rng);
  Matrix small_b = Matrix::RandomGaussian(8, 8, rng);
  Matrix small_c(8, 8);
  Gemm(small_a, small_b, &small_c);  // 1 KFLOP: below threshold

  Matrix big_a = Matrix::RandomGaussian(64, 64, rng);
  Matrix big_b = Matrix::RandomGaussian(64, 64, rng);
  Matrix big_c(64, 64);
  Gemm(big_a, big_b, &big_c);  // exactly at threshold: parallel

  EXPECT_EQ(serial.Value(), s0 + 1);
  EXPECT_EQ(parallel.Value(), p0 + 1);

  // Deterministic mode bypasses the dispatcher entirely: no new tallies.
  SetDeterministicKernels(true);
  Gemm(big_a, big_b, &big_c);
  EXPECT_EQ(serial.Value(), s0 + 1);
  EXPECT_EQ(parallel.Value(), p0 + 1);

  SetTelemetryEnabled(telemetry_was_on);
}

// SAMPNN_DETERMINISTIC_KERNELS must yield bits that do not depend on the
// thread knob at all (it never consults it).
// The tear-downs above rely on 0 meaning "back to the default", as it
// does for SetGemmThreads(0).
TEST_F(GemmParallelTest, ZeroParallelMinFlopsRestoresTheDefault) {
  const uint64_t before = GemmParallelMinFlops();
  SetGemmParallelMinFlops(1);
  EXPECT_EQ(GemmParallelMinFlops(), 1u);
  SetGemmParallelMinFlops(0);
  EXPECT_EQ(GemmParallelMinFlops(), before);
}

TEST_F(GemmParallelTest, DeterministicModeIgnoresThreadKnob) {
  SetDeterministicKernels(true);
  Rng rng(777);
  Matrix a = Matrix::RandomGaussian(37, 83, rng);
  Matrix b = Matrix::RandomGaussian(83, 41, rng);
  Matrix c1(37, 41), c4(37, 41);
  SetGemmThreads(1);
  Gemm(a, b, &c1);
  SetGemmThreads(4);
  Gemm(a, b, &c4);
  EXPECT_TRUE(BitwiseEqual(c1, c4));

  Matrix want(37, 41);
  reference::Gemm(a, b, &want, 1.0f, 0.0f);
  for (size_t i = 0; i < c1.size(); ++i) {
    EXPECT_NEAR(c1.data()[i], want.data()[i], 1e-3f);
  }
}

// The microkernel issues aligned 32-byte loads from the pack buffers and
// benefits from aligned C rows; Matrix guarantees 64-byte storage.
TEST_F(GemmParallelTest, MatrixStorageIsCacheLineAligned) {
  for (size_t rows : {1, 3, 64, 257}) {
    Matrix m(rows, rows);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(m.data()) % 64, 0u)
        << rows << "x" << rows;
  }
  Rng rng(5);
  Matrix g = Matrix::RandomGaussian(6, 16, rng);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(g.data()) % 64, 0u);
  Matrix copy = g;
  EXPECT_EQ(reinterpret_cast<uintptr_t>(copy.data()) % 64, 0u);
  Matrix moved = std::move(copy);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(moved.data()) % 64, 0u);
}

}  // namespace
}  // namespace sampnn
