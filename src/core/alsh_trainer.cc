#include "src/core/alsh_trainer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "src/lsh/mips.h"
#include "src/nn/loss.h"
#include "src/resilience/fault_injector.h"
#include "src/telemetry/epoch_recorder.h"
#include "src/telemetry/metrics_registry.h"
#include "src/telemetry/telemetry.h"
#include "src/telemetry/trace.h"
#include "src/tensor/kernels.h"
#include "src/util/binary_io.h"

namespace sampnn {

namespace {

void WriteMatrixState(std::ostream& out, const Matrix& m) {
  WriteU64(out, m.rows());
  WriteU64(out, m.cols());
  WriteFloats(out, {m.data(), m.size()});
}

Status ReadMatrixStateInto(std::istream& in, Matrix* m) {
  SAMPNN_ASSIGN_OR_RETURN(uint64_t rows, ReadU64(in));
  SAMPNN_ASSIGN_OR_RETURN(uint64_t cols, ReadU64(in));
  if (rows != m->rows() || cols != m->cols()) {
    return Status::InvalidArgument(
        "checkpointed matrix is " + std::to_string(rows) + "x" +
        std::to_string(cols) + ", expected " + std::to_string(m->rows()) +
        "x" + std::to_string(m->cols()));
  }
  std::vector<float> buf;
  SAMPNN_RETURN_NOT_OK(ReadFloats(in, &buf));
  if (buf.size() != m->size()) {
    return Status::InvalidArgument("checkpointed matrix payload mismatch");
  }
  std::copy(buf.begin(), buf.end(), m->data());
  return Status::OK();
}

Status ReadFloatsExact(std::istream& in, std::vector<float>* out,
                       size_t expected) {
  SAMPNN_RETURN_NOT_OK(ReadFloats(in, out));
  if (out->size() != expected) {
    return Status::InvalidArgument("checkpointed vector length mismatch");
  }
  return Status::OK();
}

// Ascending indices of the nonzero entries of x.
void NonzeroSupport(std::span<const float> x, std::vector<uint32_t>* out) {
  out->clear();
  for (size_t i = 0; i < x.size(); ++i) {
    if (x[i] != 0.0f) out->push_back(static_cast<uint32_t>(i));
  }
}

}  // namespace

StatusOr<SparseOptState> SparseOptState::Create(const Layer& layer,
                                                const std::string& mode_name) {
  SparseOptState state;
  if (mode_name == "sgd") {
    state.mode = Mode::kSgd;
  } else if (mode_name == "adagrad") {
    state.mode = Mode::kAdagrad;
  } else if (mode_name == "adam") {
    state.mode = Mode::kAdam;
  } else {
    return Status::InvalidArgument("SparseOptState: unknown mode " + mode_name);
  }
  if (state.mode != Mode::kSgd) {
    state.v_w = Matrix(layer.in_dim(), layer.out_dim());
    state.v_b.assign(layer.out_dim(), 0.0f);
    if (state.mode == Mode::kAdam) {
      state.m_w = Matrix(layer.in_dim(), layer.out_dim());
      state.m_b.assign(layer.out_dim(), 0.0f);
      state.col_step.assign(layer.out_dim(), 0);
    }
  }
  return state;
}

void SparseOptState::Update(Matrix* w, std::span<float> bias,
                            std::span<const float> a_prev,
                            std::span<const uint32_t> prev_support,
                            std::span<const uint32_t> cols,
                            std::span<const float> delta, float lr,
                            std::vector<float>* scratch) {
  const size_t n = w->cols(), m = cols.size();
  const uint32_t* cd = cols.data();
  // Column deltas, gathered so the row pass reads them contiguously, and
  // (Adam) per-column step sizes.
  scratch->resize(2 * m);
  float* d = scratch->data();
  float* step = d + m;
  bool all_finite = true;
  for (size_t t = 0; t < m; ++t) {
    d[t] = delta[cd[t]];
    all_finite = all_finite && std::isfinite(d[t]);
  }
  // With every delta finite, a zero a_prev[i] zeroes row i's gradient
  // (delta * 0 == 0), so the row pass may skip it.
  const auto skip_row = [all_finite](float ai) {
    return ai == 0.0f && all_finite;
  };
  float* wd = w->data();
  switch (mode) {
    case Mode::kSgd: {
      for (size_t t = 0; t < m; ++t) bias[cd[t]] -= lr * d[t];
      for (uint32_t i : prev_support) {
        const float ai = a_prev[i];
        if (skip_row(ai)) continue;
        float* wr = wd + i * n;
        for (size_t t = 0; t < m; ++t) {
          const float g = d[t] * ai;
          if (g != 0.0f) wr[cd[t]] -= lr * g;
        }
      }
      return;
    }
    case Mode::kAdagrad: {
      for (size_t t = 0; t < m; ++t) {
        const uint32_t j = cd[t];
        const float gb = d[t];
        v_b[j] += gb * gb;
        bias[j] -= lr * gb / (std::sqrt(v_b[j]) + 1e-10f);
      }
      for (uint32_t i : prev_support) {
        const float ai = a_prev[i];
        if (skip_row(ai)) continue;
        float* wr = wd + i * n;
        float* vr = v_w.data() + i * n;
        for (size_t t = 0; t < m; ++t) {
          const float g = d[t] * ai;
          if (g == 0.0f) continue;
          const uint32_t j = cd[t];
          vr[j] += g * g;
          wr[j] -= lr * g / (std::sqrt(vr[j]) + 1e-10f);
        }
      }
      return;
    }
    case Mode::kAdam: {
      // Lazy Adam: untouched steps skip moment decay (standard for sparse
      // embedding-style updates); bias correction uses the per-column count.
      constexpr float kBeta1 = 0.9f, kBeta2 = 0.999f, kEps = 1e-8f;
      for (size_t t = 0; t < m; ++t) {
        const uint32_t j = cd[t];
        const uint32_t s = ++col_step[j];
        const float bc1 = 1.0f - std::pow(kBeta1, static_cast<float>(s));
        const float bc2 = 1.0f - std::pow(kBeta2, static_cast<float>(s));
        step[t] = lr * std::sqrt(bc2) / bc1;
        const float gb = d[t];
        m_b[j] = kBeta1 * m_b[j] + (1.0f - kBeta1) * gb;
        v_b[j] = kBeta2 * v_b[j] + (1.0f - kBeta2) * gb * gb;
        bias[j] -= step[t] * m_b[j] / (std::sqrt(v_b[j]) + kEps);
      }
      for (uint32_t i : prev_support) {
        const float ai = a_prev[i];
        if (skip_row(ai)) continue;
        float* wr = wd + i * n;
        float* mr = m_w.data() + i * n;
        float* vr = v_w.data() + i * n;
        for (size_t t = 0; t < m; ++t) {
          const float g = d[t] * ai;
          if (g == 0.0f) continue;
          const uint32_t j = cd[t];
          mr[j] = kBeta1 * mr[j] + (1.0f - kBeta1) * g;
          vr[j] = kBeta2 * vr[j] + (1.0f - kBeta2) * g * g;
          wr[j] -= step[t] * mr[j] / (std::sqrt(vr[j]) + kEps);
        }
      }
      return;
    }
  }
}

StatusOr<std::unique_ptr<AlshTrainer>> AlshTrainer::Create(
    Mlp net, const AlshOptions& options, float learning_rate, uint64_t seed) {
  if (learning_rate <= 0.0f) {
    return Status::InvalidArgument("AlshTrainer: learning rate must be > 0");
  }
  if (options.early_rebuild_every == 0 || options.late_rebuild_every == 0) {
    return Status::InvalidArgument(
        "AlshTrainer: rebuild periods must be >= 1");
  }
  std::unique_ptr<AlshTrainer> trainer(
      new AlshTrainer(std::move(net), options, learning_rate, seed));
  SAMPNN_RETURN_NOT_OK(trainer->Init());
  return trainer;
}

AlshTrainer::AlshTrainer(Mlp net, const AlshOptions& options,
                         float learning_rate, uint64_t seed)
    : Trainer(std::move(net)), options_(options), lr_(learning_rate),
      seed_(seed) {}

Status AlshTrainer::Init() {
  const size_t num_hidden = net_.num_hidden_layers();
  indexes_.reserve(num_hidden);
  for (size_t k = 0; k < num_hidden; ++k) {
    const Layer& layer = net_.layer(k);
    SAMPNN_ASSIGN_OR_RETURN(
        AlshIndex index,
        AlshIndex::Create(layer.in_dim(), options_.index, seed_ + 1000 * k));
    index.Build(layer.weights());
    indexes_.push_back(std::move(index));
  }
  opt_states_.reserve(net_.num_layers());
  for (size_t k = 0; k < net_.num_layers(); ++k) {
    SAMPNN_ASSIGN_OR_RETURN(
        SparseOptState state,
        SparseOptState::Create(net_.layer(k), options_.optimizer));
    opt_states_.push_back(std::move(state));
  }
  output_cols_.resize(net_.output_dim());
  std::iota(output_cols_.begin(), output_cols_.end(), 0u);
  const size_t threads = std::max<size_t>(1, options_.threads);
  scratches_.resize(threads);
  Rng seeder(seed_ ^ 0xA15A1EADull);
  for (auto& s : scratches_) s.rng = seeder.Split();
  if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);
  initialized_ = true;
  return Status::OK();
}

void AlshTrainer::SelectActive(size_t hidden_layer,
                               std::span<const float> a_prev,
                               Scratch* scratch) {
  auto& active = scratch->active[hidden_layer];
  const size_t n = net_.layer(hidden_layer).out_dim();
  if (options_.selection == AlshSelection::kOracle) {
    // Exact MIPS: the Lemma 7.1 idealization. Dense cost, perfect selection.
    const size_t k = std::min(n, std::max<size_t>(1, options_.oracle_active));
    const auto top = ExactMips(net_.layer(hidden_layer).weights(), a_prev, k);
    active.clear();
    active.reserve(top.size());
    for (const MipsResult& r : top) active.push_back(r.id);
    scratch->active_fraction_sum +=
        static_cast<double>(active.size()) / static_cast<double>(n);
    ++scratch->active_fraction_count;
    return;
  }
  indexes_[hidden_layer].Query(a_prev, &active, &scratch->probe);
  if (active.empty() && options_.dense_fallback) {
    // Graceful degradation: an empty probe union means the index has no
    // signal for this query (degenerate tables, all-zero activations, a
    // just-poisoned layer). Run the layer dense for this sample rather
    // than training on the random-fill floor alone.
    active.resize(n);
    std::iota(active.begin(), active.end(), 0u);
    ++scratch->dense_fallbacks;
    if (TelemetryEnabled()) {
      static Counter& c = MetricsRegistry::Get().GetCounter(
          "resilience.alsh_dense_fallbacks");
      c.Increment();
    }
    scratch->active_fraction_sum += 1.0;
    ++scratch->active_fraction_count;
    return;
  }
  if (active.size() < options_.min_active && active.size() < n) {
    // Random fill keeps training alive when buckets come back (near) empty —
    // the floor is itself a uniform sample, like a tiny Dropout fallback.
    const size_t want = std::min(options_.min_active, n);
    while (active.size() < want) {
      const auto cand =
          static_cast<uint32_t>(scratch->rng.NextBounded(n));
      if (std::find(active.begin(), active.end(), cand) == active.end()) {
        active.push_back(cand);
      }
    }
  }
  scratch->active_fraction_sum +=
      static_cast<double>(active.size()) / static_cast<double>(n);
  ++scratch->active_fraction_count;
}

void AlshTrainer::ForwardActive(size_t k, std::span<const float> a_prev,
                                Scratch* scratch) {
  const Layer& layer = net_.layer(k);
  const std::vector<uint32_t>& active = scratch->active[k];
  auto& z = scratch->z[k];
  auto& a = scratch->a[k];
  z.assign(layer.out_dim(), 0.0f);
  a.assign(layer.out_dim(), 0.0f);
  VecMatCols(a_prev, scratch->support[k], layer.weights(), layer.bias(),
             active, z);
  // The next layer's support is built while applying the activation. The
  // random-fill floor appends out of order; restore ascending order so the
  // next layer sums its rows in index order.
  auto& support = scratch->support[k + 1];
  support.clear();
  for (uint32_t j : active) {
    a[j] = ActivationValue(layer.activation(), z[j]);
    if (a[j] != 0.0f) support.push_back(j);
  }
  if (!std::is_sorted(support.begin(), support.end())) {
    std::sort(support.begin(), support.end());
  }
}

double AlshTrainer::TrainSample(std::span<const float> x, int32_t label,
                                Scratch* scratch) {
  const size_t num_layers = net_.num_layers();
  const size_t num_hidden = net_.num_hidden_layers();
  scratch->a.resize(num_layers);
  scratch->z.resize(num_layers);
  scratch->active.resize(num_hidden);
  scratch->support.resize(num_layers);
  NonzeroSupport(x, &scratch->support[0]);

  // --- Feedforward over active nodes only ---
  {
    PhaseScope scope(&scratch->timer, kPhaseForward);
    std::span<const float> a_prev = x;
    for (size_t k = 0; k < num_hidden; ++k) {
      {
        // Hash-probe selection, charged as a sub-phase nested inside
        // forward (the paper folds it into feedforward time).
        PhaseScope sampling(&scratch->timer, kPhaseSampling);
        SelectActive(k, a_prev, scratch);
      }
      ForwardActive(k, a_prev, scratch);
      a_prev = scratch->a[k];
    }
    // Output layer: exact (VecMat skips the zeros of the sparse a_prev).
    const Layer& out_layer = net_.layer(num_layers - 1);
    auto& z_out = scratch->z[num_layers - 1];
    auto& a_out = scratch->a[num_layers - 1];
    z_out.assign(out_layer.out_dim(), 0.0f);
    out_layer.ForwardLinear(a_prev, z_out);
    a_out = z_out;  // linear output layer
  }

  // --- Loss gradient (softmax - onehot) ---
  auto& logits = scratch->a[num_layers - 1];
  const float mx = *std::max_element(logits.begin(), logits.end());
  double denom = 0.0;
  for (float v : logits) denom += std::exp(static_cast<double>(v - mx));
  auto& delta = scratch->delta;
  delta.resize(logits.size());
  for (size_t j = 0; j < logits.size(); ++j) {
    delta[j] = static_cast<float>(
        std::exp(static_cast<double>(logits[j] - mx)) / denom);
  }
  const double loss =
      std::log(denom) + mx - logits[static_cast<size_t>(label)];
  delta[static_cast<size_t>(label)] -= 1.0f;

  // --- Backpropagation through active nodes only ---
  {
    PhaseScope scope(&scratch->timer, kPhaseBackward);
    for (size_t k = num_layers; k-- > 0;) {
      Layer& layer = net_.layer(k);
      const bool is_output = (k == num_layers - 1);
      std::span<const float> a_prev =
          (k == 0) ? x : std::span<const float>(scratch->a[k - 1]);
      const std::span<const uint32_t> prev_support =
          (k == 0) ? scratch->support[0] : scratch->active[k - 1];
      const std::span<const uint32_t> cols =
          is_output ? std::span<const uint32_t>(output_cols_)
                    : scratch->active[k];

      // delta for the previous layer, needed before this layer's update
      // mutates the weights.
      if (k > 0) {
        const Layer& prev_layer = net_.layer(k - 1);
        auto& delta_prev = scratch->delta_prev;
        delta_prev.assign(prev_layer.out_dim(), 0.0f);
        const Matrix& w = layer.weights();
        const size_t n = w.cols();
        const float* wd = w.data();
        // Sparse over rows; over columns, every output (in index order) or
        // the active set (in its selection order). Four rows at a time
        // give four independent accumulation chains, each summing in
        // `cols` order.
        size_t r = 0;
        for (; r + 4 <= prev_support.size(); r += 4) {
          const float* w0 = wd + static_cast<size_t>(prev_support[r]) * n;
          const float* w1 = wd + static_cast<size_t>(prev_support[r + 1]) * n;
          const float* w2 = wd + static_cast<size_t>(prev_support[r + 2]) * n;
          const float* w3 = wd + static_cast<size_t>(prev_support[r + 3]) * n;
          float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
          for (uint32_t j : cols) {
            const float dj = delta[j];
            acc0 += dj * w0[j];
            acc1 += dj * w1[j];
            acc2 += dj * w2[j];
            acc3 += dj * w3[j];
          }
          delta_prev[prev_support[r]] = acc0;
          delta_prev[prev_support[r + 1]] = acc1;
          delta_prev[prev_support[r + 2]] = acc2;
          delta_prev[prev_support[r + 3]] = acc3;
        }
        for (; r < prev_support.size(); ++r) {
          const float* row = wd + static_cast<size_t>(prev_support[r]) * n;
          float acc = 0.0f;
          for (uint32_t j : cols) acc += delta[j] * row[j];
          delta_prev[prev_support[r]] = acc;
        }
        for (uint32_t i : prev_support) {
          delta_prev[i] *= ActivationGradValue(prev_layer.activation(),
                                               scratch->z[k - 1][i]);
        }
      }
      // Sparse weight update of this layer, then move down.
      opt_states_[k].Update(&layer.weights(), layer.bias(), a_prev,
                            prev_support, cols, delta, lr_,
                            &scratch->update_scratch);
      if (k > 0) delta.swap(scratch->delta_prev);
    }
  }
  return loss;
}

void AlshTrainer::MaybeRebuild() {
  const size_t period = samples_seen_ <= options_.early_phase_samples
                            ? options_.early_rebuild_every
                            : options_.late_rebuild_every;
  if (samples_seen_ - samples_at_last_rebuild_ < period) return;
  samples_at_last_rebuild_ = samples_seen_;
  PhaseScope scope(&timer_, kPhaseHashRebuild);
  if (pool_ != nullptr && indexes_.size() > 1) {
    // Per-layer indexes are independent and the weights are read-only
    // during a rebuild, so the L-table reconstruction parallelizes cleanly
    // across layers (unlike the HOGWILD sample loop, this path is
    // race-free and runs under TSan in CI).
    pool_->ParallelFor(indexes_.size(), [this](size_t k) {
      indexes_[k].Build(net_.layer(k).weights());
    });
  } else {
    for (size_t k = 0; k < indexes_.size(); ++k) {
      indexes_[k].Build(net_.layer(k).weights());
    }
  }
}

StatusOr<double> AlshTrainer::Step(const Matrix& x,
                                   std::span<const int32_t> y) {
  SAMPNN_CHECK(initialized_);
  if (x.rows() != y.size()) {
    return Status::InvalidArgument("AlshTrainer::Step: batch size mismatch");
  }
  if (x.cols() != net_.input_dim()) {
    return Status::InvalidArgument("AlshTrainer::Step: input dim mismatch");
  }
  double total_loss = 0.0;
  if (pool_ == nullptr) {
    for (size_t r = 0; r < x.rows(); ++r) {
      total_loss += TrainSample(x.Row(r), y[r], &scratches_[0]);
      ++samples_seen_;
      MaybeRebuild();
    }
  } else {
    // HOGWILD over the minibatch: each worker owns one scratch and a
    // contiguous slice of samples; weight races are tolerated by design.
    const size_t workers = scratches_.size();
    const size_t rows = x.rows();
    const size_t per_worker = (rows + workers - 1) / workers;
    std::vector<double> worker_loss(workers, 0.0);
    PhaseScope scope(&timer_, "parallel");
    for (size_t w = 0; w < workers; ++w) {
      const size_t begin = w * per_worker;
      const size_t end = std::min(rows, begin + per_worker);
      if (begin >= end) break;
      pool_->Submit([this, &x, &y, &worker_loss, w, begin, end] {
        double acc = 0.0;
        for (size_t r = begin; r < end; ++r) {
          acc += TrainSample(x.Row(r), y[r], &scratches_[w]);
        }
        worker_loss[w] = acc;
      });
    }
    pool_->Wait();
    for (double l : worker_loss) total_loss += l;
    samples_seen_ += rows;
    MaybeRebuild();
  }
  for (Scratch& s : scratches_) {
    timer_.Merge(s.timer);
    s.timer.Reset();
  }
  if (FaultArmed(FaultKind::kGradNan)) {
    // Sparse updates write straight into the weights, so a poisoned
    // gradient manifests as a poisoned parameter. Target the output layer:
    // nothing sits between the logits and the loss to mask the NaN.
    net_.layer(net_.num_layers() - 1).weights()(0, 0) =
        std::numeric_limits<float>::quiet_NaN();
  }
  return total_loss / static_cast<double>(x.rows());
}

uint64_t AlshTrainer::DenseFallbacks() const {
  uint64_t total = 0;
  for (const Scratch& s : scratches_) total += s.dense_fallbacks;
  return total;
}

Status AlshTrainer::SaveExtraState(std::ostream& out) const {
  WriteU64(out, samples_seen_);
  WriteU64(out, samples_at_last_rebuild_);
  WriteU64(out, indexes_.size());
  for (const AlshIndex& index : indexes_) {
    SAMPNN_RETURN_NOT_OK(index.SaveState(out));
  }
  WriteU64(out, opt_states_.size());
  for (const SparseOptState& opt : opt_states_) {
    WriteU64(out, static_cast<uint64_t>(opt.mode));
    WriteMatrixState(out, opt.v_w);
    WriteMatrixState(out, opt.m_w);
    WriteFloats(out, opt.v_b);
    WriteFloats(out, opt.m_b);
    WriteU32s(out, opt.col_step);
  }
  WriteU64(out, scratches_.size());
  for (const Scratch& s : scratches_) {
    WriteRngState(out, s.rng.GetState());
    WriteF64(out, s.active_fraction_sum);
    WriteU64(out, s.active_fraction_count);
    WriteU64(out, s.dense_fallbacks);
  }
  if (!out) return Status::IOError("ALSH trainer state write failure");
  return Status::OK();
}

Status AlshTrainer::LoadExtraState(std::istream& in) {
  SAMPNN_CHECK(initialized_);
  SAMPNN_ASSIGN_OR_RETURN(uint64_t samples_seen, ReadU64(in));
  SAMPNN_ASSIGN_OR_RETURN(uint64_t samples_at_last_rebuild, ReadU64(in));
  SAMPNN_ASSIGN_OR_RETURN(uint64_t num_indexes, ReadU64(in));
  if (num_indexes != indexes_.size()) {
    return Status::InvalidArgument(
        "ALSH state has " + std::to_string(num_indexes) +
        " indexes, trainer has " + std::to_string(indexes_.size()));
  }
  for (AlshIndex& index : indexes_) {
    SAMPNN_RETURN_NOT_OK(index.LoadState(in));
  }
  SAMPNN_ASSIGN_OR_RETURN(uint64_t num_opt, ReadU64(in));
  if (num_opt != opt_states_.size()) {
    return Status::InvalidArgument(
        "ALSH state has " + std::to_string(num_opt) +
        " optimizer states, trainer has " +
        std::to_string(opt_states_.size()));
  }
  for (SparseOptState& opt : opt_states_) {
    SAMPNN_ASSIGN_OR_RETURN(uint64_t mode, ReadU64(in));
    if (mode != static_cast<uint64_t>(opt.mode)) {
      return Status::InvalidArgument(
          "ALSH state sparse-optimizer mode mismatch");
    }
    SAMPNN_RETURN_NOT_OK(ReadMatrixStateInto(in, &opt.v_w));
    SAMPNN_RETURN_NOT_OK(ReadMatrixStateInto(in, &opt.m_w));
    SAMPNN_RETURN_NOT_OK(ReadFloatsExact(in, &opt.v_b, opt.v_b.size()));
    SAMPNN_RETURN_NOT_OK(ReadFloatsExact(in, &opt.m_b, opt.m_b.size()));
    std::vector<uint32_t> col_step;
    SAMPNN_RETURN_NOT_OK(ReadU32s(in, &col_step));
    if (col_step.size() != opt.col_step.size()) {
      return Status::InvalidArgument("ALSH state col_step length mismatch");
    }
    opt.col_step = std::move(col_step);
  }
  SAMPNN_ASSIGN_OR_RETURN(uint64_t num_scratches, ReadU64(in));
  if (num_scratches != scratches_.size()) {
    return Status::InvalidArgument(
        "ALSH state was saved with " + std::to_string(num_scratches) +
        " worker scratches, trainer has " +
        std::to_string(scratches_.size()) +
        " (threads must match to resume)");
  }
  for (Scratch& s : scratches_) {
    SAMPNN_ASSIGN_OR_RETURN(RngState rng_state, ReadRngState(in));
    SAMPNN_ASSIGN_OR_RETURN(s.active_fraction_sum, ReadF64(in));
    SAMPNN_ASSIGN_OR_RETURN(uint64_t count, ReadU64(in));
    SAMPNN_ASSIGN_OR_RETURN(s.dense_fallbacks, ReadU64(in));
    s.rng.SetState(rng_state);
    s.active_fraction_count = static_cast<size_t>(count);
  }
  samples_seen_ = static_cast<size_t>(samples_seen);
  samples_at_last_rebuild_ = static_cast<size_t>(samples_at_last_rebuild);
  return Status::OK();
}

std::vector<float> AlshTrainer::ForwardSampleSparse(std::span<const float> x) {
  SAMPNN_CHECK(initialized_);
  SAMPNN_CHECK_EQ(x.size(), net_.input_dim());
  Scratch& scratch = scratches_[0];
  const size_t num_layers = net_.num_layers();
  const size_t num_hidden = net_.num_hidden_layers();
  scratch.a.resize(num_layers);
  scratch.z.resize(num_layers);
  scratch.active.resize(num_hidden);
  scratch.support.resize(num_layers);
  NonzeroSupport(x, &scratch.support[0]);
  std::span<const float> a_prev = x;
  for (size_t k = 0; k < num_hidden; ++k) {
    SelectActive(k, a_prev, &scratch);
    ForwardActive(k, a_prev, &scratch);
    a_prev = scratch.a[k];
  }
  const Layer& out_layer = net_.layer(num_layers - 1);
  std::vector<float> logits(out_layer.out_dim(), 0.0f);
  out_layer.ForwardLinear(a_prev, logits);
  return logits;
}

std::vector<int32_t> AlshTrainer::PredictSparse(const Matrix& inputs) {
  std::vector<int32_t> out(inputs.rows());
  for (size_t r = 0; r < inputs.rows(); ++r) {
    const std::vector<float> logits = ForwardSampleSparse(inputs.Row(r));
    out[r] = static_cast<int32_t>(
        std::max_element(logits.begin(), logits.end()) - logits.begin());
  }
  return out;
}

Status AlshTrainer::PredictCancellable(const Matrix& x,
                                       const CancelContext& ctx,
                                       std::vector<int32_t>* preds) {
  SAMPNN_CHECK(preds != nullptr);
  if (x.cols() != net_.input_dim()) {
    return Status::InvalidArgument("PredictCancellable: input has " +
                                   std::to_string(x.cols()) +
                                   " features, network expects " +
                                   std::to_string(net_.input_dim()));
  }
  preds->assign(x.rows(), -1);
  for (size_t r = 0; r < x.rows(); ++r) {
    if (ctx.ShouldStop()) return ctx.StopStatus();
    const std::vector<float> logits = ForwardSampleSparse(x.Row(r));
    (*preds)[r] = static_cast<int32_t>(
        std::max_element(logits.begin(), logits.end()) - logits.begin());
  }
  return Status::OK();
}

double AlshTrainer::AverageActiveFraction() const {
  double sum = 0.0;
  size_t count = 0;
  for (const Scratch& s : scratches_) {
    sum += s.active_fraction_sum;
    count += s.active_fraction_count;
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

size_t AlshTrainer::TotalRebuilds() const {
  size_t total = 0;
  for (const auto& index : indexes_) total += index.build_count() - 1;
  return total;
}

void AlshTrainer::FillTelemetry(EpochTelemetry* record) const {
  record->active_node_fraction = AverageActiveFraction();
  record->hash_rebuilds = TotalRebuilds();
  double occupancy_sum = 0.0;
  uint64_t nonempty = 0;
  uint64_t max_occupancy = 0;
  for (const AlshIndex& index : indexes_) {
    const AlshIndexStats stats = index.ComputeStats();
    occupancy_sum +=
        stats.avg_nonempty_occupancy * static_cast<double>(stats.nonempty_buckets);
    nonempty += stats.nonempty_buckets;
    max_occupancy = std::max<uint64_t>(max_occupancy, stats.max_bucket_occupancy);
  }
  record->alsh_nonempty_buckets = nonempty;
  record->alsh_max_bucket_occupancy = max_occupancy;
  record->alsh_avg_bucket_occupancy =
      nonempty == 0 ? 0.0 : occupancy_sum / static_cast<double>(nonempty);
  record->alsh_dense_fallbacks = DenseFallbacks();
}

}  // namespace sampnn
