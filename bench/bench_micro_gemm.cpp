// Micro benchmarks for the dense and sparse linear-algebra kernels — the
// Θ(n²)-per-layer operations the paper identifies as the training
// bottleneck (§4.1), and the active-set kernels that replace them.
//
// Two modes:
//   (default)  google-benchmark suite over the kernel family.
//   --sweep    packed-vs-scalar GFLOP/s sweep across thread counts
//              (1/2/4/hardware max), written as JSON for
//              scripts/check_gemm_perf.py and the CI perf-smoke job.
//              Flags: --shapes=256,1024,64x1024x1024,tA:784x20x1000
//                     (square sizes or MxKxN triples of C = op(A) op(B);
//                     a tA: or tB: prefix times GemmTransA or GemmTransB)
//                     --threads=1,2,4  --out=results/BENCH_gemm.json
//              The JSON records the active Mc/Kc/Nc blocking and, per
//              packed record, both the requested thread count and the
//              clamped effective worker count (GemmEffectiveWorkers).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "src/tensor/gemm.h"
#include "src/tensor/kernel_config.h"
#include "src/tensor/kernels.h"
#include "src/util/rng.h"

namespace sampnn {
namespace {

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  Rng rng(42);
  Matrix a = Matrix::RandomGaussian(n, n, rng);
  Matrix b = Matrix::RandomGaussian(n, n, rng);
  Matrix c(n, n);
  for (auto _ : state) {
    Gemm(a, b, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_GemmBatchTimesWeights(benchmark::State& state) {
  // The training-shaped product: (batch x n) * (n x n) at batch 20.
  const auto n = static_cast<size_t>(state.range(0));
  Rng rng(42);
  Matrix a = Matrix::RandomGaussian(20, n, rng);
  Matrix w = Matrix::RandomGaussian(n, n, rng);
  Matrix c(20, n);
  for (auto _ : state) {
    Gemm(a, w, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 20 * n * n);
}
BENCHMARK(BM_GemmBatchTimesWeights)->Arg(256)->Arg(1000);

void BM_GemmTransA(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  Rng rng(42);
  Matrix a = Matrix::RandomGaussian(20, n, rng);
  Matrix b = Matrix::RandomGaussian(20, n, rng);
  Matrix c(n, n);
  for (auto _ : state) {
    GemmTransA(a, b, &c);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_GemmTransA)->Arg(256)->Arg(1000);

void BM_GemmTransB(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  Rng rng(42);
  Matrix a = Matrix::RandomGaussian(20, n, rng);
  Matrix b = Matrix::RandomGaussian(n, n, rng);
  Matrix c(20, n);
  for (auto _ : state) {
    GemmTransB(a, b, &c);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_GemmTransB)->Arg(256)->Arg(1000);

void BM_VecMat(benchmark::State& state) {
  // The SGD hot path: (1 x n) * (n x n) + bias.
  const auto n = static_cast<size_t>(state.range(0));
  Rng rng(42);
  Matrix w = Matrix::RandomGaussian(n, n, rng);
  std::vector<float> x(n), bias(n), y(n);
  for (auto& v : x) v = rng.NextGaussian();
  for (auto _ : state) {
    VecMat(x, w, bias, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_VecMat)->Arg(256)->Arg(1000);

// `count` distinct indices below n, ascending.
std::vector<uint32_t> DistinctSorted(size_t n, size_t count, Rng& rng) {
  std::vector<uint32_t> all(n);
  for (size_t i = 0; i < n; ++i) all[i] = static_cast<uint32_t>(i);
  for (size_t i = 0; i < count; ++i) {
    std::swap(all[i], all[i + rng.NextBounded(n - i)]);
  }
  all.resize(count);
  std::sort(all.begin(), all.end());
  return all;
}

void BM_VecMatCols(benchmark::State& state) {
  // The ALSH-approx forward: `active` of n columns, summed over the
  // `nonzero` rows where the input is nonzero.
  const auto n = static_cast<size_t>(state.range(0));
  const auto active = static_cast<size_t>(state.range(1));
  const auto nonzero = static_cast<size_t>(state.range(2));
  Rng rng(42);
  Matrix w = Matrix::RandomGaussian(n, n, rng);
  std::vector<float> x(n, 0.0f), bias(n), y(n);
  const std::vector<uint32_t> rows = DistinctSorted(n, nonzero, rng);
  for (uint32_t i : rows) x[i] = rng.NextGaussian();
  const std::vector<uint32_t> cols = DistinctSorted(n, active, rng);
  for (auto _ : state) {
    VecMatCols(x, rows, w, bias, cols, y);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * active * nonzero);
}
BENCHMARK(BM_VecMatCols)
    ->Args({1000, 160, 160})    // ~16% active over a ~16% nonzero input
    ->Args({1000, 160, 1000})   // dense input (layer 0 on dense features)
    ->Args({1000, 1000, 1000});  // degenerate: every column and row

// ---------------------------------------------------------------------------
// --sweep mode: packed vs seed-scalar GFLOP/s across shapes x thread counts.
// ---------------------------------------------------------------------------

// One swept product C(m x n) = op(A)(m x k) * op(B)(k x n). `op` names the
// call and its record: "gemm" (Gemm), "gemm_trans_a" (GemmTransA, the
// weight gradient a^T * delta, A stored k x m) or "gemm_trans_b"
// (GemmTransB, delta * W^T, B stored n x k).
struct SweepShapeSpec {
  std::string op;
  size_t m, k, n;
};

struct SweepRecord {
  std::string op;
  size_t m, k, n, threads, workers;
  std::string variant;  // "packed" or "scalar_seed"
  double gflops;
};

// Times one configured kernel call: one warmup, then enough repetitions to
// accumulate ~200 ms of wall clock (at least 3), reporting the best-rep
// throughput so a scheduler hiccup cannot make the CI floor check flaky.
template <typename Fn>
double MeasureGflops(uint64_t flops_per_call, Fn&& fn) {
  using Clock = std::chrono::steady_clock;
  fn();  // warmup: page in operands, resolve dispatch, grow pack scratch
  double best_secs = 1e300;
  double total = 0.0;
  int reps = 0;
  while ((total < 0.2 || reps < 3) && reps < 50) {
    const auto t0 = Clock::now();
    fn();
    const double secs = std::chrono::duration<double>(Clock::now() - t0).count();
    best_secs = std::min(best_secs, secs);
    total += secs;
    ++reps;
  }
  return static_cast<double>(flops_per_call) / best_secs / 1e9;
}

std::vector<size_t> DefaultThreadCounts() {
  const size_t hw = std::max<unsigned>(1, std::thread::hardware_concurrency());
  std::vector<size_t> counts = {1, 2, 4};
  if (hw != 1 && hw != 2 && hw != 4) counts.push_back(hw);
  return counts;
}

void SweepShape(const SweepShapeSpec& s, const std::vector<size_t>& threads,
                std::vector<SweepRecord>* out) {
  Rng rng(20250806);
  const bool trans_a = s.op == "gemm_trans_a";
  const bool trans_b = s.op == "gemm_trans_b";
  Matrix a = trans_a ? Matrix::RandomGaussian(s.k, s.m, rng)
                     : Matrix::RandomGaussian(s.m, s.k, rng);
  Matrix b = trans_b ? Matrix::RandomGaussian(s.n, s.k, rng)
                     : Matrix::RandomGaussian(s.k, s.n, rng);
  Matrix c(s.m, s.n);
  auto product = [&] {
    if (trans_a) {
      GemmTransA(a, b, &c, 1.0f, 0.0f);
    } else if (trans_b) {
      GemmTransB(a, b, &c, 1.0f, 0.0f);
    } else {
      Gemm(a, b, &c, 1.0f, 0.0f);
    }
  };
  const uint64_t flops = uint64_t{2} * s.m * s.k * s.n;
  char shape[64];
  std::snprintf(shape, sizeof(shape), "%s%zux%zux%zu",
                trans_a ? "tA:" : trans_b ? "tB:" : "", s.m, s.k, s.n);

  // Seed baseline: the deterministic path is the call's own seed serial
  // scalar loop, unchanged ordering.
  SetDeterministicKernels(true);
  const double scalar = MeasureGflops(flops, product);
  out->push_back({s.op, s.m, s.k, s.n, 1, 1, "scalar_seed", scalar});
  std::printf("  %-18s scalar_seed            %8.2f GFLOP/s\n", shape,
              scalar);

  SetDeterministicKernels(false);
  SetGemmParallelMinFlops(1);  // always take the requested-thread path
  for (size_t t : threads) {
    SetGemmThreads(t);
    const size_t workers = GemmEffectiveWorkers(t);
    const double packed = MeasureGflops(flops, product);
    out->push_back({s.op, s.m, s.k, s.n, t, workers, "packed", packed});
    std::printf("  %-18s packed  %2zut (eff %2zu)  %8.2f GFLOP/s  (%.2fx)\n",
                shape, t, workers, packed, packed / scalar);
  }
  SetGemmThreads(0);
  SetGemmParallelMinFlops(0);
}

std::vector<size_t> ParseSizeList(const std::string& list) {
  std::vector<size_t> vals;
  size_t pos = 0;
  while (pos < list.size()) {
    size_t comma = list.find(',', pos);
    if (comma == std::string::npos) comma = list.size();
    vals.push_back(std::stoul(list.substr(pos, comma - pos)));
    pos = comma + 1;
  }
  return vals;
}

// A shape is either a square size ("512") or an MxKxN triple
// ("64x1024x1024") — the latter covers the non-square MLP products
// (batch x fan-in times fan-in x fan-out). A "tA:" or "tB:" prefix sweeps
// the backward products instead: "tA:1000x20x1000" is the weight gradient
// a^T * delta at batch 20, "tB:20x1000x1000" is delta * W^T.
SweepShapeSpec ParseShape(std::string spec) {
  std::string op = "gemm";
  if (spec.rfind("tA:", 0) == 0) {
    op = "gemm_trans_a";
  } else if (spec.rfind("tB:", 0) == 0) {
    op = "gemm_trans_b";
  }
  if (op != "gemm") spec = spec.substr(3);
  const size_t x1 = spec.find('x');
  if (x1 == std::string::npos) {
    const size_t s = std::stoul(spec);
    return {op, s, s, s};
  }
  const size_t x2 = spec.find('x', x1 + 1);
  if (x2 == std::string::npos) {
    std::fprintf(stderr, "bad shape '%s' (want [tA:|tB:]S or MxKxN)\n",
                 spec.c_str());
    std::exit(1);
  }
  return {op, std::stoul(spec.substr(0, x1)),
          std::stoul(spec.substr(x1 + 1, x2 - x1 - 1)),
          std::stoul(spec.substr(x2 + 1))};
}

int RunSweep(const std::vector<std::string>& args) {
  // Defaults cover the cache-blocking regimes (L2-resident 256, streaming
  // 512/1024), the tall/flat MLP shapes with one Mc block or one column
  // chunk dimension dominating, the paper's skinny layer products at 1, 8
  // and 20 rows, which read B in place, and its backward products: the
  // batch-20 weight gradients and delta * W^T at batch 20 and 1.
  std::vector<SweepShapeSpec> shapes = {
      {"gemm", 256, 256, 256},         {"gemm", 512, 512, 512},
      {"gemm", 1024, 1024, 1024},      {"gemm", 64, 1024, 1024},
      {"gemm", 1024, 1024, 64},        {"gemm", 1, 1000, 1000},
      {"gemm", 8, 1000, 1000},         {"gemm", 20, 784, 1000},
      {"gemm", 20, 1000, 1000},        {"gemm_trans_a", 784, 20, 1000},
      {"gemm_trans_a", 1000, 20, 1000}, {"gemm_trans_b", 20, 1000, 1000},
      {"gemm_trans_b", 1, 1000, 1000}};
  std::vector<size_t> threads = DefaultThreadCounts();
  std::string out_path = "results/BENCH_gemm.json";
  for (const auto& arg : args) {
    if (arg.rfind("--shapes=", 0) == 0) {
      shapes.clear();
      std::string list = arg.substr(9);
      size_t pos = 0;
      while (pos < list.size()) {
        size_t comma = list.find(',', pos);
        if (comma == std::string::npos) comma = list.size();
        shapes.push_back(ParseShape(list.substr(pos, comma - pos)));
        pos = comma + 1;
      }
    } else if (arg.rfind("--threads=", 0) == 0) {
      threads = ParseSizeList(arg.substr(10));
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    }
  }

  const bool avx2 = gemm_internal::MicroKernelIsAvx2();
  const GemmBlocking blk = GemmBlockSizes();
  std::printf(
      "gemm sweep: avx2_fma=%d hardware_concurrency=%u "
      "block mc=%zu kc=%zu nc=%zu\n",
      avx2, std::thread::hardware_concurrency(), blk.mc, blk.kc, blk.nc);
  std::vector<SweepRecord> records;
  for (const auto& s : shapes) SweepShape(s, threads, &records);

  const auto parent = std::filesystem::path(out_path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  std::ofstream f(out_path);
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  f << "{\n  \"avx2_fma\": " << (avx2 ? "true" : "false")
    << ",\n  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
    << ",\n  \"block\": {\"mc\": " << blk.mc << ", \"kc\": " << blk.kc
    << ", \"nc\": " << blk.nc << "}"
    << ",\n  \"results\": [\n";
  for (size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    f << "    {\"op\": \"" << r.op << "\", \"m\": " << r.m
      << ", \"k\": " << r.k << ", \"n\": " << r.n
      << ", \"threads\": " << r.threads << ", \"workers\": " << r.workers
      << ", \"variant\": \"" << r.variant
      << "\", \"gflops\": " << r.gflops << "}"
      << (i + 1 < records.size() ? "," : "") << "\n";
  }
  f << "  ]\n}\n";
  std::printf("wrote %s (%zu records)\n", out_path.c_str(), records.size());
  return 0;
}

}  // namespace
}  // namespace sampnn

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  for (const auto& a : args) {
    if (a == "--sweep") return sampnn::RunSweep(args);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
