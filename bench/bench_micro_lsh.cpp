// Micro benchmarks for the ALSH substrate: hash computation, index build
// (the table-reconstruction cost the §9.2 schedule amortizes), and query.

#include <benchmark/benchmark.h>

#include "src/lsh/hash_table.h"
#include "src/lsh/mips.h"
#include "src/lsh/wta_hash.h"
#include "src/util/rng.h"

namespace sampnn {
namespace {

void BM_SrpHash(benchmark::State& state) {
  const auto dim = static_cast<size_t>(state.range(0));
  const auto bits = static_cast<size_t>(state.range(1));
  Rng rng(42);
  auto hash = std::move(SrpHash::Create(dim, bits, rng)).ValueOrDie("hash");
  std::vector<float> x(dim);
  for (auto& v : x) v = rng.NextGaussian();
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash.Hash(x));
  }
}
BENCHMARK(BM_SrpHash)->Args({256, 6})->Args({1000, 6})->Args({1000, 12});

void BM_WtaHash(benchmark::State& state) {
  const auto dim = static_cast<size_t>(state.range(0));
  const auto subhashes = static_cast<size_t>(state.range(1));
  Rng rng(42);
  auto hash = std::move(WtaHash::Create(dim, subhashes, 8, rng))
                  .ValueOrDie("hash");
  std::vector<float> x(dim);
  for (auto& v : x) v = rng.NextGaussian();
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash.Hash(x));
  }
}
BENCHMARK(BM_WtaHash)->Args({256, 2})->Args({1000, 2})->Args({1000, 4});

void BM_AlshIndexBuild(benchmark::State& state) {
  // One hash-table reconstruction over a (dim x items) weight matrix — the
  // unit of the paper's rebuild schedule.
  const auto dim = static_cast<size_t>(state.range(0));
  const auto items = static_cast<size_t>(state.range(1));
  Rng rng(42);
  Matrix w = Matrix::RandomGaussian(dim, items, rng);
  AlshIndexOptions options;  // paper defaults K=6, L=5, m=3
  auto index =
      std::move(AlshIndex::Create(dim, options, 7)).ValueOrDie("index");
  for (auto _ : state) {
    index.Build(w);
  }
  state.SetItemsProcessed(state.iterations() * items);
}
// Layer 0 of the 784-1000-1000-1000 benchmark net, then a hidden layer.
BENCHMARK(BM_AlshIndexBuild)->Args({784, 1000})->Args({1000, 1000});

void BM_AlshIndexQuery(benchmark::State& state) {
  // One probe of all L tables: Q transform, fused hash, bucket union.
  const auto dim = static_cast<size_t>(state.range(0));
  const auto items = static_cast<size_t>(state.range(1));
  const auto tables = static_cast<size_t>(state.range(2));
  Rng rng(42);
  Matrix w = Matrix::RandomGaussian(dim, items, rng);
  AlshIndexOptions options;
  options.tables = tables;
  auto index =
      std::move(AlshIndex::Create(dim, options, 7)).ValueOrDie("index");
  index.Build(w);
  std::vector<float> q(dim);
  for (auto& v : q) v = rng.NextGaussian();
  std::vector<uint32_t> out;
  AlshIndex::QueryScratch scratch;
  for (auto _ : state) {
    index.Query(q, &out, &scratch);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_AlshIndexQuery)
    ->Args({1000, 1000, 5})
    ->Args({1000, 1000, 10})
    ->Args({256, 256, 5});

void BM_ExactMips(benchmark::State& state) {
  // The linear-scan baseline the hash index competes against.
  const auto dim = static_cast<size_t>(state.range(0));
  const auto items = static_cast<size_t>(state.range(1));
  Rng rng(42);
  Matrix db = Matrix::RandomGaussian(dim, items, rng);
  std::vector<float> q(dim);
  for (auto& v : q) v = rng.NextGaussian();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExactMips(db, q, 50));
  }
}
BENCHMARK(BM_ExactMips)->Args({1000, 1000})->Args({256, 256});

}  // namespace
}  // namespace sampnn

BENCHMARK_MAIN();
