// Micro benchmarks for the Monte-Carlo matmul estimators (§6): exact gemm
// vs Drineas CR sampling vs Adelman Bernoulli sampling, plus the
// probability-estimation overhead in isolation (the cost that makes
// MC-approx^S slower than exact training at batch 1, §9.3).

#include <algorithm>

#include <benchmark/benchmark.h>

#include "src/approx/adelman.h"
#include "src/approx/drineas.h"
#include "src/tensor/kernels.h"
#include "src/util/rng.h"

namespace sampnn {
namespace {

void BM_ExactMatmul(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  Rng rng(42);
  Matrix a = Matrix::RandomGaussian(20, n, rng);
  Matrix b = Matrix::RandomGaussian(n, n, rng);
  Matrix c(20, n);
  for (auto _ : state) {
    Gemm(a, b, &c);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_ExactMatmul)->Arg(256)->Arg(1000);

void BM_DrineasMatmul(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const auto k = static_cast<size_t>(state.range(1));
  Rng rng(42);
  Matrix a = Matrix::RandomGaussian(20, n, rng);
  Matrix b = Matrix::RandomGaussian(n, n, rng);
  Matrix c;
  for (auto _ : state) {
    DrineasApproxMatmul(a, b, k, rng, &c).Abort("drineas");
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_DrineasMatmul)->Args({1000, 100})->Args({1000, 10});

void BM_AdelmanMatmul(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const auto k = static_cast<size_t>(state.range(1));
  Rng rng(42);
  Matrix a = Matrix::RandomGaussian(20, n, rng);
  Matrix b = Matrix::RandomGaussian(n, n, rng);
  Matrix c;
  for (auto _ : state) {
    AdelmanApproxMatmul(a, b, k, rng, &c).Abort("adelman");
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_AdelmanMatmul)->Args({1000, 100})->Args({1000, 10});

// Hidden activations after ReLU: about half the sampled factors are zero.
Matrix ReluActivations(size_t rows, size_t cols, Rng& rng) {
  Matrix x = Matrix::RandomGaussian(rows, cols, rng);
  for (size_t i = 0; i < x.size(); ++i) {
    x.data()[i] = std::max(0.0f, x.data()[i]);
  }
  return x;
}

void BM_AdelmanGradProduct(benchmark::State& state) {
  // The MC-approx weight-gradient product X^T * delta sampled over the
  // batch dimension (k = 10 of batch 20, the paper's setting), at the
  // fan_in x 20 x width shapes of the 784-1000-1000-1000-10 net.
  const auto fan_in = static_cast<size_t>(state.range(0));
  const auto width = static_cast<size_t>(state.range(1));
  Rng rng(42);
  Matrix x = ReluActivations(20, fan_in, rng);
  Matrix delta = Matrix::RandomGaussian(20, width, rng);
  Matrix c;
  for (auto _ : state) {
    AdelmanApproxGemmTransA(x, delta, 10, rng, &c).Abort("transA");
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_AdelmanGradProduct)
    ->Args({256, 256})
    ->Args({784, 1000})
    ->Args({1000, 1000})
    ->Args({1000, 10})
    ->Unit(benchmark::kMicrosecond);

void BM_AdelmanDeltaProduct(benchmark::State& state) {
  // delta * W^T sampled over the node dimension at the §9.2 ratio p ~ 0.1:
  // rows x n x n, n / 10 samples (20 rows: MC^M; 1 row: MC^S).
  const auto rows = static_cast<size_t>(state.range(0));
  const auto n = static_cast<size_t>(state.range(1));
  Rng rng(42);
  Matrix delta = Matrix::RandomGaussian(rows, n, rng);
  Matrix w = Matrix::RandomGaussian(n, n, rng);
  Matrix c;
  for (auto _ : state) {
    AdelmanApproxGemmTransB(delta, w, n / 10, rng, &c).Abort("transB");
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_AdelmanDeltaProduct)
    ->Args({20, 256})
    ->Args({20, 1000})
    ->Args({1, 1000})
    ->Unit(benchmark::kMicrosecond);

void BM_AdelmanDeltaScores(benchmark::State& state) {
  // The score pass of delta * W^T on its own: the column norms of W (and
  // of the 20-row delta), which every step reads in full.
  const auto n = static_cast<size_t>(state.range(0));
  Rng rng(42);
  Matrix delta = Matrix::RandomGaussian(20, n, rng);
  Matrix w = Matrix::RandomGaussian(n, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(AdelmanScoresTransB(delta, w));
  }
}
BENCHMARK(BM_AdelmanDeltaScores)->Arg(1000)->Unit(benchmark::kMicrosecond);

void BM_ProbabilityEstimationOverhead(benchmark::State& state) {
  // Just the score pass (norms of the batch columns and W rows) — the
  // per-step overhead that dominates at batch 1.
  const auto n = static_cast<size_t>(state.range(0));
  const auto batch = static_cast<size_t>(state.range(1));
  Rng rng(42);
  Matrix x = Matrix::RandomGaussian(batch, n, rng);
  Matrix w = Matrix::RandomGaussian(n, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(AdelmanScores(x, w));
  }
}
BENCHMARK(BM_ProbabilityEstimationOverhead)
    ->Args({1000, 20})
    ->Args({1000, 1});

}  // namespace
}  // namespace sampnn

BENCHMARK_MAIN();
