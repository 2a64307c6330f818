// Training phase: the paper's five methods trained back to back on the
// 3 x 1000 ReLU net, in rounds of one fixed-size chunk per method, through
// the public Dataset::FillBatch / MakeTrainer / Trainer::Step calls.

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "src/core/trainer.h"
#include "src/data/dataset.h"
#include "src/nn/mlp.h"

namespace perfbench {

/// Short metric key per method, in paper order.
inline constexpr const char* kMethodKeys[] = {"standard", "dropout",
                                              "adaptive", "alsh", "mc"};
inline constexpr size_t kNumMethods = 5;

struct TrainSetting {
  size_t batch = 20;          ///< 20 = Table 4, 1 = Table 3
  size_t chunk_samples = 200; ///< samples per method per round
  size_t warm_steps = 2;      ///< untimed steps per method before round 0
  size_t recipe_rounds = 4;   ///< rounds after which accuracy is taken
  size_t rounds = 4;          ///< rounds in all (>= recipe_rounds); the work
                              ///< is fixed, so every run times the same steps
};

/// Inputs and trainers built during set-up.
struct TrainInputs {
  sampnn::DatasetSplits data;
  sampnn::MlpConfig net_config;
  sampnn::Matrix eval_x;  ///< seed-drawn 90% of the test split
  std::vector<int32_t> eval_y;
  std::vector<std::unique_ptr<sampnn::Trainer>> trainers;  ///< kMethodKeys order
  std::vector<sampnn::TrainerOptions> options;
};

/// Generates the dataset (fixed recipe), draws the evaluation subset from
/// `seed` and builds one trainer per method.
TrainInputs SetUpTraining(const TrainSetting& setting, size_t width,
                          size_t scale, uint64_t seed);

struct TrainResult {
  bool correct = true;
  uint64_t attempted = 0;  ///< train steps
  uint64_t failed = 0;     ///< steps with a non-finite loss
  std::vector<std::string> errors;
  std::optional<sampnn::Mlp> model_a;  ///< Standard, halfway through the recipe
  std::optional<sampnn::Mlp> model_b;  ///< Standard, at the end of the recipe
  double traced_s_per_step = 0.0;    ///< summed over methods, traced
  double untraced_s_per_step = 0.0;  ///< summed over methods, untraced
};

/// Runs `setting.rounds` rounds. With `trace`, odd rounds run with
/// telemetry and spans on, and the Standard step is replayed layer by layer.
TrainResult RunTraining(TrainInputs* inputs, const TrainSetting& setting,
                        bool trace, Report* report);

}  // namespace perfbench
