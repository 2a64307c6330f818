// Serving phase: an open-loop Poisson generator drives InferenceService at a
// ladder of fixed rates while a hot-swap promoter, a /statusz scraper and a
// sampled request log run beside it.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "src/nn/mlp.h"
#include "src/tensor/matrix.h"

namespace perfbench {

/// One fixed offered rate of the ladder.
struct RateStep {
  double rps = 0.0;
  double seconds = 0.0;
};

struct ServeSetting {
  std::vector<RateStep> ladder;  ///< ascending rates
  size_t warmup_steps = 1;       ///< leading steps left out of goodput
  size_t nominal = 2;            ///< ladder index of the nominal rate
  double p99_limit_ms = 0.0;     ///< latency limit for goodput
  size_t workers = 2;
};

struct ServeResult {
  bool correct = true;
  uint64_t attempted = 0;  ///< requests submitted
  uint64_t failed = 0;     ///< not OK, or a wrong prediction
  std::vector<std::string> errors;
  double traced_p50_ms = 0.0;    ///< nominal rate, traced windows
  double untraced_p50_ms = 0.0;  ///< nominal rate, untraced windows
};

/// Serves `model_b` (version 1) and alternately promotes copies of
/// `model_a` and `model_b`; every response is checked against the offline
/// Mlp::Predict of the version that served it. `pool` holds the request rows.
ServeResult RunServing(const ServeSetting& setting, const sampnn::Mlp& model_a,
                       const sampnn::Mlp& model_b, const sampnn::Matrix& pool,
                       const std::vector<int32_t>& pool_labels, uint64_t seed,
                       bool trace, Report* report);

}  // namespace perfbench
