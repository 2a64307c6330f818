#include "src/serve/model_backend.h"

#include <algorithm>
#include <utility>

#include "src/core/mc_trainer.h"
#include "src/util/check.h"
#include "src/util/sync.h"

namespace sampnn {

const char* ServeQualityToString(ServeQuality q) {
  switch (q) {
    case ServeQuality::kFull:
      return "full";
    case ServeQuality::kDegraded:
      return "degraded";
  }
  return "unknown";
}

namespace {

Status CheckBatchShape(const Matrix& batch, size_t input_dim,
                       const char* who) {
  if (batch.rows() == 0) {
    return Status::InvalidArgument(std::string(who) + ": empty batch");
  }
  if (batch.cols() != input_dim) {
    return Status::InvalidArgument(
        std::string(who) + ": batch has " + std::to_string(batch.cols()) +
        " features, model expects " + std::to_string(input_dim));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Dense: the exact cancellable forward at every rung.
// ---------------------------------------------------------------------------

class DenseBackend : public ModelBackend {
 public:
  explicit DenseBackend(Mlp model) : model_(std::move(model)) {}

  const char* name() const override { return "dense"; }
  size_t input_dim() const override { return model_.input_dim(); }
  size_t output_dim() const override { return model_.output_dim(); }

  Status Forward(const Matrix& batch, const CancelContext& ctx,
                 ServeQuality /*quality*/, Matrix* logits) override {
    SAMPNN_CHECK(logits != nullptr);
    SAMPNN_RETURN_NOT_OK(CheckBatchShape(batch, input_dim(), "DenseBackend"));
    MlpWorkspace ws;
    SAMPNN_RETURN_NOT_OK(model_.ForwardCancellable(batch, ctx, &ws));
    *logits = ws.a.back();
    return Status::OK();
  }

 private:
  const Mlp model_;
};

// ---------------------------------------------------------------------------
// ALSH: hash-probe sparse inference, dense batched fallback when degraded.
// ---------------------------------------------------------------------------

class AlshBackend : public ModelBackend {
 public:
  explicit AlshBackend(std::unique_ptr<AlshTrainer> trainer)
      : trainer_(std::move(trainer)) {}

  const char* name() const override { return "alsh"; }
  size_t input_dim() const override { return trainer_->net().input_dim(); }
  size_t output_dim() const override { return trainer_->net().output_dim(); }

  Status Forward(const Matrix& batch, const CancelContext& ctx,
                 ServeQuality quality, Matrix* logits) override {
    SAMPNN_CHECK(logits != nullptr);
    SAMPNN_RETURN_NOT_OK(CheckBatchShape(batch, input_dim(), "AlshBackend"));
    if (quality == ServeQuality::kDegraded) {
      // Degraded rung: one batched dense pass — no per-sample probing.
      MlpWorkspace ws;
      SAMPNN_RETURN_NOT_OK(trainer_->net().ForwardCancellable(batch, ctx, &ws));
      *logits = ws.a.back();
      return Status::OK();
    }
    // Full rung: per-sample hash probing, polled between samples. The
    // trainer's probe scratch is single-stream, so concurrent service
    // workers serialize here.
    MutexLock lock(mu_);
    if (logits->rows() != batch.rows() || logits->cols() != output_dim()) {
      *logits = Matrix(batch.rows(), output_dim());
    }
    for (size_t r = 0; r < batch.rows(); ++r) {
      if (ctx.ShouldStop()) return ctx.StopStatus();
      const std::vector<float> row = trainer_->ForwardSampleSparse(batch.Row(r));
      std::copy(row.begin(), row.end(), logits->Row(r).begin());
    }
    return Status::OK();
  }

 private:
  Mutex mu_{"serve.backend", lockrank::kServeBackend};
  // Not SAMPNN_GUARDED_BY(mu_): const accessors (net() dimensions) are
  // lock-free by design; only the mutable probe path serializes on mu_.
  std::unique_ptr<AlshTrainer> trainer_;
};

// ---------------------------------------------------------------------------
// MC-approx: exact when healthy, Adelman-sampled products when degraded.
// ---------------------------------------------------------------------------

class McBackend : public ModelBackend {
 public:
  McBackend(Mlp model, const McBackendOptions& options)
      : model_(std::move(model)), products_(DegradedOptions(options),
                                            options.seed) {}

  const char* name() const override { return "mc"; }
  size_t input_dim() const override { return model_.input_dim(); }
  size_t output_dim() const override { return model_.output_dim(); }

  Status Forward(const Matrix& batch, const CancelContext& ctx,
                 ServeQuality quality, Matrix* logits) override {
    SAMPNN_CHECK(logits != nullptr);
    SAMPNN_RETURN_NOT_OK(CheckBatchShape(batch, input_dim(), "McBackend"));
    MlpWorkspace ws;
    if (quality == ServeQuality::kFull) {
      SAMPNN_RETURN_NOT_OK(model_.ForwardCancellable(batch, ctx, &ws));
    } else {
      // Degraded rung: every layer's product estimated from
      // `degraded_samples` Adelman column-row samples — per-request compute
      // shrinks roughly by k / in_dim per layer. The estimator RNG is a
      // single stream, so workers serialize.
      MutexLock lock(mu_);
      SAMPNN_RETURN_NOT_OK(model_.Forward(batch, products_, &ws, &ctx));
    }
    *logits = std::move(ws.a.back());
    return Status::OK();
  }

 private:
  // The MC products with the forward approximated at `degraded_samples`
  // (at least one) per layer; the backward hooks are never called here.
  static McOptions DegradedOptions(const McBackendOptions& options) {
    McOptions mc;
    mc.approx_forward = true;
    mc.forward_samples = std::max<size_t>(1, options.degraded_samples);
    return mc;
  }

  Mutex mu_{"serve.backend", lockrank::kServeBackend};
  const Mlp model_;
  McProducts products_ SAMPNN_GUARDED_BY(mu_);
};

}  // namespace

std::unique_ptr<ModelBackend> MakeDenseBackend(Mlp model) {
  return std::make_unique<DenseBackend>(std::move(model));
}

std::unique_ptr<ModelBackend> MakeAlshBackend(
    std::unique_ptr<AlshTrainer> trainer) {
  SAMPNN_CHECK(trainer != nullptr);
  return std::make_unique<AlshBackend>(std::move(trainer));
}

std::unique_ptr<ModelBackend> MakeMcBackend(Mlp model,
                                            const McBackendOptions& options) {
  return std::make_unique<McBackend>(std::move(model), options);
}

}  // namespace sampnn
