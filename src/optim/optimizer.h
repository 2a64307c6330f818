// Optimizer interface and factory. The paper trains with SGD or Adam
// (ALSH-approx performs better with Adam; the original ALSH code used
// Adagrad), so all three are provided.

#pragma once

#include <istream>
#include <memory>
#include <ostream>
#include <string>

#include "src/nn/mlp.h"
#include "src/util/status.h"

namespace sampnn {

/// \brief Applies parameter updates from dense gradients.
///
/// Stateful optimizers (Adam, Adagrad) shape their state lazily on the first
/// Step() call and are tied to that network's architecture afterwards.
class Optimizer {
 public:
  virtual ~Optimizer() = default;

  /// Applies one update: params -= f(grads). `grads` must be index-aligned
  /// with `net`'s layers.
  virtual void Step(Mlp* net, const MlpGrads& grads) = 0;

  /// Drops accumulated state (moments, step counters).
  virtual void Reset() = 0;

  /// Current learning rate.
  virtual float learning_rate() const = 0;
  /// Updates the learning rate (for schedules / the paper's per-setting lr).
  virtual void set_learning_rate(float lr) = 0;

  /// Short identifier, e.g. "sgd".
  virtual const char* name() const = 0;

  /// Serializes accumulated state (moments, step counters) for
  /// checkpointing. The learning rate is configuration, not state, and is
  /// restored separately by the caller.
  virtual Status SaveState(std::ostream& out) const = 0;

  /// Restores state written by SaveState(). `net` provides the expected
  /// shapes; a mismatch returns InvalidArgument. A state saved before the
  /// first Step() restores to the lazily-uninitialized condition.
  virtual Status LoadState(std::istream& in, const Mlp& net) = 0;
};

/// Shared helpers for the MlpGrads-shaped state every optimizer carries.
/// An empty `grads` (lazy, never stepped) round-trips as such.
Status SaveGradsShapedState(std::ostream& out, const MlpGrads& grads);
Status LoadGradsShapedState(std::istream& in, const Mlp& net, MlpGrads* grads);

/// Checks (fatally) that `grads` has one entry per layer of `net`, each
/// shaped like its layer's weights and bias. Every Step() calls it before
/// touching a buffer.
void CheckGradShapes(const Mlp& net, const MlpGrads& grads);

/// \brief Plain SGD with optional momentum.
class SgdOptimizer : public Optimizer {
 public:
  explicit SgdOptimizer(float lr, float momentum = 0.0f);

  void Step(Mlp* net, const MlpGrads& grads) override;
  void Reset() override;
  float learning_rate() const override { return lr_; }
  void set_learning_rate(float lr) override { lr_ = lr; }
  const char* name() const override { return "sgd"; }
  Status SaveState(std::ostream& out) const override;
  Status LoadState(std::istream& in, const Mlp& net) override;

 private:
  float lr_;
  float momentum_;
  MlpGrads velocity_;  // empty until momentum is used
};

/// \brief Adam (Kingma & Ba) with bias correction.
class AdamOptimizer : public Optimizer {
 public:
  explicit AdamOptimizer(float lr, float beta1 = 0.9f, float beta2 = 0.999f,
                         float eps = 1e-8f);

  void Step(Mlp* net, const MlpGrads& grads) override;
  void Reset() override;
  float learning_rate() const override { return lr_; }
  void set_learning_rate(float lr) override { lr_ = lr; }
  const char* name() const override { return "adam"; }
  Status SaveState(std::ostream& out) const override;
  Status LoadState(std::istream& in, const Mlp& net) override;

 private:
  float lr_, beta1_, beta2_, eps_;
  long long t_ = 0;
  MlpGrads m_, v_;
};

/// \brief Adagrad (Duchi et al.).
class AdagradOptimizer : public Optimizer {
 public:
  explicit AdagradOptimizer(float lr, float eps = 1e-10f);

  void Step(Mlp* net, const MlpGrads& grads) override;
  void Reset() override;
  float learning_rate() const override { return lr_; }
  void set_learning_rate(float lr) override { lr_ = lr; }
  const char* name() const override { return "adagrad"; }
  Status SaveState(std::ostream& out) const override;
  Status LoadState(std::istream& in, const Mlp& net) override;

 private:
  float lr_, eps_;
  MlpGrads accum_;
};

/// Creates an optimizer by name: "sgd" | "sgd-momentum" | "adam" | "adagrad".
StatusOr<std::unique_ptr<Optimizer>> MakeOptimizer(const std::string& name,
                                                   float lr);

}  // namespace sampnn
