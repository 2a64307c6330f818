// Shared fixtures for the trainer tests: a small, clearly learnable
// synthetic classification problem and a helper that runs a trainer over it.

#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/trainer.h"
#include "src/data/batcher.h"
#include "src/data/synthetic.h"
#include "src/metrics/accuracy.h"
#include "src/tensor/kernel_config.h"

namespace sampnn::testing_util {

/// A small easy dataset: 10x10 images, `classes` well-separated classes.
inline Dataset EasyDataset(size_t examples = 400, size_t classes = 4,
                           uint64_t seed = 21) {
  SyntheticSpec spec;
  spec.name = "easy";
  spec.image_height = 10;
  spec.image_width = 10;
  spec.num_classes = classes;
  spec.num_examples = examples;
  spec.prototypes_per_class = 1;
  spec.noise_stddev = 0.05f;
  spec.shared_structure = 0.1f;
  spec.max_shift = 1;
  return GenerateSynthetic(spec, seed);
}

/// Matching network config.
inline MlpConfig EasyNet(const Dataset& data, size_t depth = 2,
                         size_t width = 32, uint64_t seed = 42) {
  MlpConfig cfg =
      MlpConfig::Uniform(data.dim(), data.num_classes(), depth, width);
  cfg.seed = seed;
  return cfg;
}

/// Runs `epochs` epochs of training; returns the mean loss of the first and
/// last epoch through `first`/`last` and the final train accuracy.
inline double TrainEpochs(Trainer* trainer, const Dataset& data,
                          size_t batch_size, size_t epochs, double* first,
                          double* last) {
  Batcher batcher(data, batch_size, 7);
  Matrix x;
  std::vector<int32_t> y;
  for (size_t e = 0; e < epochs; ++e) {
    double sum = 0.0;
    size_t n = 0;
    while (batcher.Next(&x, &y)) {
      sum += std::move(trainer->Step(x, y)).ValueOrDie("step");
      ++n;
    }
    const double mean = sum / static_cast<double>(n);
    if (e == 0 && first != nullptr) *first = mean;
    if (e + 1 == epochs && last != nullptr) *last = mean;
  }
  return EvaluateAccuracy(trainer->net(), data);
}

/// `v` as a C99 hex float ("%a"): every bit, readable in a constant.
inline std::string HexFloat(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

/// FNV-1a over raw bytes (golden-trajectory fingerprints).
inline uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Forces the serial, scalar dense kernels for its lifetime, so golden
/// constants do not depend on the build type, the ISA or the host's cache
/// blocking.
class DeterministicKernelsScope {
 public:
  DeterministicKernelsScope() : was_(DeterministicKernels()) {
    SetDeterministicKernels(true);
  }
  ~DeterministicKernelsScope() { SetDeterministicKernels(was_); }
  DeterministicKernelsScope(const DeterministicKernelsScope&) = delete;
  DeterministicKernelsScope& operator=(const DeterministicKernelsScope&) =
      delete;

 private:
  bool was_;
};

}  // namespace sampnn::testing_util
