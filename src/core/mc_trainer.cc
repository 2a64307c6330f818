#include "src/core/mc_trainer.h"

#include <algorithm>
#include <cmath>

#include "src/approx/adelman.h"
#include "src/telemetry/epoch_recorder.h"
#include "src/telemetry/metrics_registry.h"
#include "src/telemetry/trace.h"
#include "src/util/binary_io.h"

namespace sampnn {

Status ValidateMcOptions(const McOptions& options) {
  if (options.grad_batch_samples == 0) {
    return Status::InvalidArgument("mc grad_batch_samples must be >= 1");
  }
  if (options.delta_sample_ratio <= 0.0 || options.delta_sample_ratio > 1.0) {
    return Status::InvalidArgument("mc delta_sample_ratio must be in (0, 1]");
  }
  return Status::OK();
}

McProducts::McProducts(const McOptions& options, uint64_t seed,
                       SplitTimer* timer)
    : options_(options), timer_(timer), rng_(seed) {}

size_t McProducts::NodeSamples(size_t n) const {
  const auto by_ratio = static_cast<size_t>(std::llround(
      options_.delta_sample_ratio * static_cast<double>(n)));
  return std::min(n, std::max({size_t{1}, options_.delta_min_samples,
                               by_ratio}));
}

Status McProducts::Forward(size_t k, const Matrix& a, const Matrix& w,
                           Matrix* z) {
  if (!options_.approx_forward) return DensePolicy::Forward(k, a, w, z);
  const size_t samples = options_.forward_samples > 0
                             ? options_.forward_samples
                             : NodeSamples(w.rows());
  return AdelmanApproxMatmul(a, w, samples, rng_, z);
}

Status McProducts::WeightGrad(size_t /*k*/, const Matrix& a,
                              const Matrix& delta, Matrix* g) {
  // grad_W ≈ sampled a_prev^T * delta over the batch dimension. When the
  // batch is <= k the estimator degrades to the exact product, which is
  // why MC^S pays the probability-estimation overhead for nothing.
  {
    // `sampling` is charged as a sub-phase nested inside backward.
    PhaseScope span(timer_, kPhaseSampling);
    SAMPNN_RETURN_NOT_OK(AdelmanApproxGemmTransA(
        a, delta, options_.grad_batch_samples, rng_, g));
  }
  const size_t samples = std::min(a.rows(), options_.grad_batch_samples);
  batch_samples_total_ += samples;
  if (TelemetryEnabled()) {
    static Histogram& h =
        MetricsRegistry::Get().GetHistogram("approx.mc.batch_samples");
    h.Observe(samples);
  }
  return Status::OK();
}

Status McProducts::DeltaBack(size_t /*k*/, const Matrix& delta,
                             const Matrix& w, Matrix* out) {
  // delta_prev ≈ sampled delta * W^T over this layer's nodes.
  const size_t samples = NodeSamples(w.cols());
  {
    PhaseScope span(timer_, kPhaseSampling);
    SAMPNN_RETURN_NOT_OK(
        AdelmanApproxGemmTransB(delta, w, samples, rng_, out));
  }
  delta_samples_total_ += samples;
  if (TelemetryEnabled()) {
    static Histogram& h =
        MetricsRegistry::Get().GetHistogram("approx.mc.delta_samples");
    h.Observe(samples);
  }
  return Status::OK();
}

void McProducts::SaveState(std::ostream& out) const {
  WriteRngState(out, rng_.GetState());
  WriteU64(out, batch_samples_total_);
  WriteU64(out, delta_samples_total_);
}

Status McProducts::LoadState(std::istream& in) {
  SAMPNN_ASSIGN_OR_RETURN(RngState rng_state, ReadRngState(in));
  SAMPNN_ASSIGN_OR_RETURN(uint64_t batch_total, ReadU64(in));
  SAMPNN_ASSIGN_OR_RETURN(uint64_t delta_total, ReadU64(in));
  rng_.SetState(rng_state);
  batch_samples_total_ = batch_total;
  delta_samples_total_ = delta_total;
  return Status::OK();
}

McTrainer::McTrainer(Mlp net, std::unique_ptr<Optimizer> optimizer,
                     const McOptions& options, uint64_t seed)
    : DenseTrainer("mc", std::move(net), std::move(optimizer)),
      products_(options, seed, &timer_) {}

void McTrainer::FillTelemetry(EpochTelemetry* record) const {
  record->mc_batch_samples = products_.batch_samples_total();
  record->mc_delta_samples = products_.delta_samples_total();
}

Status McTrainer::SaveExtraState(std::ostream& out) const {
  products_.SaveState(out);
  return DenseTrainer::SaveExtraState(out);
}

Status McTrainer::LoadExtraState(std::istream& in) {
  SAMPNN_RETURN_NOT_OK(products_.LoadState(in));
  return DenseTrainer::LoadExtraState(in);
}

}  // namespace sampnn
