// ALSH-approx (Spring & Shrivastava, paper §5.2): per-sample active-node
// selection via asymmetric LSH over the columns of each hidden layer's
// weight matrix. Only active nodes are computed in the feedforward step
// (inactive activations estimated as zero), the gradient backpropagates
// only through active nodes, and weight updates are sparse. Hash tables are
// reconstructed on the paper's schedule (§9.2): every `early_rebuild_every`
// samples for the first `early_phase_samples`, then every
// `late_rebuild_every`.
//
// With threads > 1 the per-sample work inside a minibatch runs
// HOGWILD-style (lock-free, racy reads tolerated) — the parallelization the
// paper cites as the method's strength (§9.2, §10.4). Accuracy is unchanged
// up to gradient-race noise.

#pragma once

#include <memory>

#include "src/core/trainer.h"
#include "src/util/rng.h"
#include "src/util/threadpool.h"

namespace sampnn {

/// \brief Sparse per-entry optimizer state for ALSH's column-wise updates
/// (plain SGD, Adagrad, or lazy Adam with per-column step counts).
struct SparseOptState {
  enum class Mode { kSgd, kAdagrad, kAdam };
  Mode mode = Mode::kSgd;
  Matrix v_w;                      ///< adagrad accumulator / adam 2nd moment
  Matrix m_w;                      ///< adam 1st moment
  std::vector<float> v_b, m_b;
  std::vector<uint32_t> col_step;  ///< adam per-column timestep (lazy)

  static StatusOr<SparseOptState> Create(const Layer& layer,
                                         const std::string& mode_name);

  /// Applies one sample's sparse update to the distinct columns `cols`: the
  /// gradient of W(i, j) is delta[j] * a_prev[i] for i in `prev_support`
  /// (zero elsewhere) and the bias gradient is delta[j]; entries whose
  /// gradient is exactly zero keep their state. Adam advances each column's
  /// lazy timestep once. A per-column pass updates the biases and step
  /// sizes, then one pass walks W and its moments row by row; every entry
  /// depends only on its own state, so this equals updating the columns one
  /// at a time. `scratch` holds per-column temporaries (caller-owned, one
  /// per thread).
  void Update(Matrix* w, std::span<float> bias, std::span<const float> a_prev,
              std::span<const uint32_t> prev_support,
              std::span<const uint32_t> cols, std::span<const float> delta,
              float lr, std::vector<float>* scratch);
};

/// \brief The ALSH-approx trainer.
class AlshTrainer : public Trainer {
 public:
  static StatusOr<std::unique_ptr<AlshTrainer>> Create(
      Mlp net, const AlshOptions& options, float learning_rate, uint64_t seed);

  StatusOr<double> Step(const Matrix& x, std::span<const int32_t> y) override;
  const char* name() const override { return "alsh"; }

  /// Sparse inference with the same active-node selection used in training
  /// (hash-probe each hidden layer, compute only active nodes). This is how
  /// the ALSH-approx system itself predicts; evaluating with the dense
  /// forward instead exposes the train/inference distribution gap.
  std::vector<float> ForwardSampleSparse(std::span<const float> x);

  /// Argmax predictions over `data` rows using ForwardSampleSparse.
  std::vector<int32_t> PredictSparse(const Matrix& inputs);

  /// Serving entry point: hash-probe sparse inference with a cancellation
  /// poll between samples — ALSH serves with the same active-node selection
  /// it trained with, and an expired request stops probing mid-batch.
  Status PredictCancellable(const Matrix& x, const CancelContext& ctx,
                            std::vector<int32_t>* preds) override;

  /// Average active-set fraction observed so far (diagnostic; the paper
  /// reports ~5% of nodes per layer).
  double AverageActiveFraction() const;

  /// Total hash-table reconstructions so far, summed over layers.
  size_t TotalRebuilds() const;

  /// Reports active-node fraction, rebuild count, and aggregated
  /// bucket-occupancy stats across the per-layer indexes.
  void FillTelemetry(EpochTelemetry* record) const override;

  const AlshOptions& options() const { return options_; }
  float learning_rate() const override { return lr_; }
  void set_learning_rate(float lr) override { lr_ = lr; }

  /// Times the hash probe came back empty and the layer ran dense instead
  /// (options().dense_fallback); summed across worker scratches.
  uint64_t DenseFallbacks() const;

 protected:
  Status SaveExtraState(std::ostream& out) const override;
  Status LoadExtraState(std::istream& in) override;

 private:
  AlshTrainer(Mlp net, const AlshOptions& options, float learning_rate,
              uint64_t seed);

  // Per-sample scratch (one per worker thread).
  struct Scratch {
    std::vector<std::vector<float>> a;          // activations per layer
    std::vector<std::vector<float>> z;          // pre-activations per layer
    std::vector<std::vector<uint32_t>> active;  // active set per hidden layer
    // support[0] holds the nonzero input indices, support[k + 1] the
    // nonzero activations of hidden layer k; all ascending.
    std::vector<std::vector<uint32_t>> support;
    std::vector<float> delta, delta_prev;
    std::vector<float> update_scratch;  // SparseOptState::Update temporaries
    AlshIndex::QueryScratch probe;
    Rng rng{0};
    // Per-worker phase timing, merged into the trainer timer at the end of
    // each Step (SplitTimer itself is not thread-safe). In parallel mode the
    // merged forward/backward seconds are summed CPU time across workers;
    // the "parallel" phase holds the wall-clock time of the batch.
    SplitTimer timer;
    // Active-set accounting, aggregated by AverageActiveFraction().
    double active_fraction_sum = 0.0;
    size_t active_fraction_count = 0;
    // Empty-probe dense fallbacks taken by this worker (resilience).
    uint64_t dense_fallbacks = 0;
  };

  Status Init();
  double TrainSample(std::span<const float> x, int32_t label,
                     Scratch* scratch);
  void SelectActive(size_t hidden_layer, std::span<const float> a_prev,
                    Scratch* scratch);
  // Hidden layer k's forward over its selected active set: z and a over the
  // active nodes (zero elsewhere) and support[k + 1]. Reads support[k].
  void ForwardActive(size_t k, std::span<const float> a_prev,
                     Scratch* scratch);
  void MaybeRebuild();

  AlshOptions options_;
  float lr_;
  uint64_t seed_;
  bool initialized_ = false;
  std::vector<AlshIndex> indexes_;          // one per hidden layer
  std::vector<SparseOptState> opt_states_;  // one per layer (incl. output)
  std::vector<uint32_t> output_cols_;       // 0..out_dim-1: all updated
  std::unique_ptr<ThreadPool> pool_;
  std::vector<Scratch> scratches_;

  size_t samples_seen_ = 0;
  size_t samples_at_last_rebuild_ = 0;
};

}  // namespace sampnn
