#include "train_phase.h"

#include <cmath>
#include <cstdio>
#include <numeric>

#include "src/core/experiment.h"
#include "src/data/synthetic.h"
#include "src/nn/loss.h"
#include "src/optim/optimizer.h"
#include "src/telemetry/epoch_recorder.h"
#include "src/telemetry/metrics_registry.h"
#include "src/telemetry/telemetry.h"

namespace perfbench {

using namespace sampnn;

namespace {

// The training recipe is fixed, so accuracy is comparable across runs and
// seeds; the run seed draws the evaluation subset (and the serve traffic).
constexpr uint64_t kDataSeed = 7;
constexpr uint64_t kRecipeSeed = 42;

constexpr TrainerKind kKinds[kNumMethods] = {
    TrainerKind::kStandard, TrainerKind::kDropout,
    TrainerKind::kAdaptiveDropout, TrainerKind::kAlsh, TrainerKind::kMc};
constexpr const char* kRoundSpan = "train.round";
constexpr const char* kStepSpan[kNumMethods] = {
    "core.standard.step", "core.dropout.step", "core.adaptive.step",
    "core.alsh.step", "core.mc.step"};

// tensor.* registry counters, read around each traced Trainer::Step.
struct Counters {
  uint64_t flops = 0, realized = 0, sparse = 0, parallel = 0, serial = 0,
           pack_a = 0, pack_b = 0;

  static Counters Read() {
    MetricsRegistry& r = MetricsRegistry::Get();
    static Counter& flops = r.GetCounter("tensor.gemm.flops");
    static Counter& realized = r.GetCounter("tensor.gemm.flops_realized");
    static Counter& sparse = r.GetCounter("tensor.sparse.flops");
    static Counter& parallel = r.GetCounter("tensor.gemm.parallel_dispatches");
    static Counter& serial = r.GetCounter("tensor.gemm.serial_dispatches");
    static Counter& pack_a = r.GetCounter("tensor.gemm.pack_a_panels");
    static Counter& pack_b = r.GetCounter("tensor.gemm.pack_b_panels");
    return {flops.Value(),    realized.Value(), sparse.Value(),
            parallel.Value(), serial.Value(),   pack_a.Value(),
            pack_b.Value()};
  }
  void AddDelta(const Counters& before, const Counters& after) {
    flops += after.flops - before.flops;
    realized += after.realized - before.realized;
    sparse += after.sparse - before.sparse;
    parallel += after.parallel - before.parallel;
    serial += after.serial - before.serial;
    pack_a += after.pack_a - before.pack_a;
    pack_b += after.pack_b - before.pack_b;
  }
};

// Per-step times of one mode (traced or untraced). A step's work is the
// same from step to step, so on a shared host the slow steps measure other
// tenants, not the code: the step time is the 10th percentile over hundreds
// of steps. Periodic maintenance inside a step (ALSH's hash rebuild) is kept
// apart and amortized over all steps, so a slower rebuild still shows.
struct StepTimes {
  static constexpr double kQuantile = 0.1;
  std::vector<double> step_s;  // FillBatch + Step, rebuild excluded
  double rebuild_s = 0.0;

  double SecondsPerStep() const {
    return step_s.empty() ? 0.0
                          : Quantile(step_s, kQuantile) +
                                rebuild_s / static_cast<double>(step_s.size());
  }
};

struct MethodState {
  Trainer* trainer = nullptr;
  Rng order_rng{kRecipeSeed};
  std::vector<size_t> order;
  size_t cursor = 0;
  uint64_t steps = 0;

  StepTimes untraced, traced_times;
  std::vector<double> step_us, fill_us;  // traced steps
  double forward_s = 0, backward_s = 0, sampling_s = 0, rebuild_s = 0;
  double traced_step_s = 0;
  uint64_t traced_samples = 0;
  Counters traced;
  double test_acc = 0.0;
};

// Standard's step replayed through the layer calls it is made of, on a
// twin network that starts from the same weights and sees the same batches.
struct Replay {
  Mlp net;
  std::unique_ptr<Optimizer> optimizer;
  MlpWorkspace ws;
  MlpGrads grads;
  Matrix grad_logits;
  std::vector<double> forward_us, loss_us, backward_us, optim_us;
  uint64_t mismatches = 0;

  void Step(const Matrix& x, const std::vector<int32_t>& y,
            double trainer_loss) {
    const int64_t t0 = NowNs();
    {
      ScopedSpan span("nn.forward");
      net.Forward(x, &ws);
    }
    const int64_t t1 = NowNs();
    double loss = 0.0;
    {
      ScopedSpan span("nn.loss");
      loss = std::move(SoftmaxCrossEntropy::LossAndGrad(ws.a.back(), y,
                                                        &grad_logits))
                 .ValueOrDie("replay loss");
    }
    const int64_t t2 = NowNs();
    {
      ScopedSpan span("nn.backward");
      net.Backward(x, ws, grad_logits, &grads);
    }
    const int64_t t3 = NowNs();
    {
      ScopedSpan span("optim.step");
      optimizer->Step(&net, grads);
    }
    const int64_t t4 = NowNs();
    forward_us.push_back((t1 - t0) * 1e-3);
    loss_us.push_back((t2 - t1) * 1e-3);
    backward_us.push_back((t3 - t2) * 1e-3);
    optim_us.push_back((t4 - t3) * 1e-3);
    // Bitwise: the replay runs the very calls Trainer::Step makes.
    if (loss != trainer_loss) ++mismatches;
  }
};

// Nominal dense FLOPs of one Standard sample (Wesselink et al.'s batch
// equations): forward Z = A W, weight gradient A^T D, and the delta pushed
// back through every layer but the first, D W^T; 2 FLOPs per MAC.
uint64_t StandardFlopsPerSample(const Mlp& net) {
  uint64_t forward = 0, delta_back = 0;
  for (size_t k = 0; k < net.num_layers(); ++k) {
    const uint64_t macs = uint64_t{net.layer(k).in_dim()} * net.layer(k).out_dim();
    forward += macs;
    if (k > 0) delta_back += macs;
  }
  return 2 * (2 * forward + delta_back);
}

void NextBatch(MethodState* m, const Dataset& train, size_t batch, Matrix* x,
               std::vector<int32_t>* y) {
  if (m->cursor + batch > m->order.size()) {
    m->order_rng.Shuffle(m->order);
    m->cursor = 0;
  }
  train.FillBatch(std::span<const size_t>(m->order.data() + m->cursor, batch),
                  x, y);
  m->cursor += batch;
}

double Accuracy(const Mlp& net, const Matrix& x, const std::vector<int32_t>& y) {
  const std::vector<int32_t> pred = net.Predict(x);
  size_t hits = 0;
  for (size_t i = 0; i < pred.size(); ++i) hits += pred[i] == y[i] ? 1 : 0;
  return static_cast<double>(hits) / static_cast<double>(pred.size());
}

}  // namespace

TrainInputs SetUpTraining(const TrainSetting& setting, size_t width,
                          size_t scale, uint64_t seed) {
  ScopedSpan span("setup.training");
  TrainInputs in;
  in.data = std::move(GenerateBenchmark("mnist", kDataSeed, scale))
                .ValueOrDie("generate dataset");
  in.net_config = PaperMlpConfig(in.data.train, /*depth=*/3, width, kRecipeSeed);
  std::vector<size_t> rows(in.data.test.size());
  std::iota(rows.begin(), rows.end(), size_t{0});
  Rng rng(seed);
  rng.Shuffle(rows);
  rows.resize(rows.size() * 9 / 10);
  in.data.test.FillBatch(rows, &in.eval_x, &in.eval_y);
  for (TrainerKind kind : kKinds) {
    in.options.push_back(PaperTrainerOptions(kind, setting.batch, kRecipeSeed));
    in.trainers.push_back(std::move(MakeTrainer(in.net_config, in.options.back()))
                              .ValueOrDie("make trainer"));
  }
  return in;
}

TrainResult RunTraining(TrainInputs* in, const TrainSetting& setting,
                        bool trace, Report* report) {
  TrainResult result;
  const Dataset& train = in->data.train;
  const size_t steps_per_chunk =
      std::max<size_t>(1, setting.chunk_samples / setting.batch);

  std::vector<MethodState> methods(kNumMethods);
  for (size_t k = 0; k < kNumMethods; ++k) {
    methods[k].trainer = in->trainers[k].get();
    methods[k].order.resize(train.size());
    std::iota(methods[k].order.begin(), methods[k].order.end(), size_t{0});
    methods[k].order_rng.Shuffle(methods[k].order);
  }
  std::optional<Replay> replay;
  if (trace) {
    replay.emplace(Replay{
        std::move(Mlp::Create(in->net_config)).ValueOrDie("replay net"),
        std::move(MakeOptimizer(in->options[0].optimizer,
                                in->options[0].learning_rate))
            .ValueOrDie("replay optimizer"),
        {}, {}, {}, {}, {}, {}, {}, 0});
  }

  Matrix x;
  std::vector<int32_t> y;
  // One step of method k. Warm-up steps (`timed` false) are not recorded.
  const auto step = [&](size_t k, bool timed, bool traced) {
    MethodState& m = methods[k];
    const double rebuild0 = m.trainer->timer().Seconds(kPhaseHashRebuild);
    const int64_t t0 = NowNs();
    {
      ScopedSpan span("data.fill_batch");
      NextBatch(&m, train, setting.batch, &x, &y);
    }
    const int64_t t1 = NowNs();
    const Counters before = traced ? Counters::Read() : Counters{};
    StatusOr<double> loss = Status::Internal("not run");
    {
      ScopedSpan span(kStepSpan[k]);
      loss = m.trainer->Step(x, y);
    }
    const int64_t t2 = NowNs();
    const double rebuild =
        m.trainer->timer().Seconds(kPhaseHashRebuild) - rebuild0;
    if (timed) {
      StepTimes& times = traced ? m.traced_times : m.untraced;
      times.step_s.push_back(SecondsBetween(t0, t2) - rebuild);
      times.rebuild_s += rebuild;
    }
    if (traced) {
      m.traced.AddDelta(before, Counters::Read());
      m.fill_us.push_back((t1 - t0) * 1e-3);
      m.step_us.push_back((t2 - t1) * 1e-3);
      m.traced_step_s += SecondsBetween(t1, t2);
      m.traced_samples += setting.batch;
    }
    ++m.steps;
    ++result.attempted;
    if (!loss.ok() || !std::isfinite(loss.value())) {
      ++result.failed;
      result.correct = false;
      result.errors.push_back(std::string(kMethodKeys[k]) +
                              ": non-finite or failed step " +
                              loss.status().ToString());
    } else if (k == 0 && replay.has_value()) {
      SetTelemetryEnabled(false);
      replay->Step(x, y, loss.value());
      SetTelemetryEnabled(traced);
    }
  };

  for (size_t k = 0; k < kNumMethods; ++k) {
    for (size_t s = 0; s < setting.warm_steps; ++s) step(k, false, false);
  }

  std::vector<double> eval_rows_per_s;
  for (size_t round = 0; round < setting.rounds; ++round) {
    const bool traced = trace && round % 2 == 1;
    SetTelemetryEnabled(traced);
    Tracer::Get().set_enabled(traced);
    ScopedSpan round_span(kRoundSpan);
    for (size_t k = 0; k < kNumMethods; ++k) {
      MethodState& m = methods[k];
      const SplitTimer& timer = m.trainer->timer();
      const double fwd = timer.Seconds(kPhaseForward);
      const double bwd = timer.Seconds(kPhaseBackward);
      const double samp = timer.Seconds(kPhaseSampling);
      const double reb = timer.Seconds(kPhaseHashRebuild);
      for (size_t s = 0; s < steps_per_chunk; ++s) step(k, true, traced);
      if (traced) {
        m.forward_s += timer.Seconds(kPhaseForward) - fwd;
        m.backward_s += timer.Seconds(kPhaseBackward) - bwd;
        m.sampling_s += timer.Seconds(kPhaseSampling) - samp;
        m.rebuild_s += timer.Seconds(kPhaseHashRebuild) - reb;
      }
    }
    SetTelemetryEnabled(false);
    if (round + 1 == setting.recipe_rounds / 2) {
      result.model_a = methods[0].trainer->net().Clone();
    }
    if (round + 1 == setting.recipe_rounds) {
      result.model_b = methods[0].trainer->net().Clone();
      for (size_t k = 0; k < kNumMethods; ++k) {
        ScopedSpan span("nn.predict");
        const int64_t t0 = NowNs();
        methods[k].test_acc =
            Accuracy(methods[k].trainer->net(), in->eval_x, in->eval_y);
        eval_rows_per_s.push_back(static_cast<double>(in->eval_x.rows()) /
                                  SecondsBetween(t0, NowNs()));
      }
    }
  }
  Tracer::Get().set_enabled(false);

  for (size_t k = 0; k < kNumMethods; ++k) {
    const MethodState& m = methods[k];
    result.traced_s_per_step += m.traced_times.SecondsPerStep();
    result.untraced_s_per_step += m.untraced.SecondsPerStep();
    const std::vector<double>& t = m.untraced.step_s;
    std::fprintf(stderr,
                 "train %-8s %zu untraced steps, ms/step p10 %.3f p50 %.3f "
                 "p90 %.3f, rebuild %.3f s, test_acc %.4f\n",
                 kMethodKeys[k], t.size(), Quantile(t, 0.1) * 1e3,
                 Quantile(t, 0.5) * 1e3, Quantile(t, 0.9) * 1e3,
                 m.untraced.rebuild_s, m.test_acc);
  }

  // Correctness: the FLOP counter must match the nominal formula exactly
  // for Standard, and the layer replay must reproduce its losses bitwise.
  const uint64_t nominal = StandardFlopsPerSample(methods[0].trainer->net());
  if (trace) {
    const MethodState& s = methods[0];
    if (s.traced.flops != nominal * s.traced_samples) {
      result.correct = false;
      result.errors.push_back(
          "standard: tensor.gemm.flops delta " + std::to_string(s.traced.flops) +
          " != nominal " + std::to_string(nominal * s.traced_samples));
    }
    if (replay->mismatches != 0) {
      result.correct = false;
      result.errors.push_back("standard: layer replay loss differs on " +
                              std::to_string(replay->mismatches) + " steps");
    }
  }

  if (!trace) {
    for (size_t k = 0; k < kNumMethods; ++k) {
      const std::string key = std::string("train.") + kMethodKeys[k];
      report->Add(key + ".samples_per_s",
                  static_cast<double>(setting.batch) /
                      methods[k].untraced.SecondsPerStep(),
                  "1/s");
      report->Add(key + ".test_acc", methods[k].test_acc, "fraction");
    }
    return result;
  }

  std::vector<double> fill_us;
  Counters all;
  for (size_t k = 0; k < kNumMethods; ++k) {
    const MethodState& m = methods[k];
    fill_us.insert(fill_us.end(), m.fill_us.begin(), m.fill_us.end());
    all.AddDelta(Counters{}, m.traced);
    const std::string core = std::string("core.") + kMethodKeys[k];
    const std::string tensor = std::string("tensor.") + kMethodKeys[k];
    const double per_k = 1000.0 / static_cast<double>(m.traced_samples);
    const double per_sample = 1.0 / static_cast<double>(m.traced_samples);
    report->Add(core + ".step_us.p50", Quantile(m.step_us, 0.5), "us");
    report->Add(core + ".step_us.p99", Quantile(m.step_us, 0.99), "us");
    report->Add(core + ".forward_s", m.forward_s * per_k, "s/1k_samples");
    report->Add(core + ".backward_s", m.backward_s * per_k, "s/1k_samples");
    report->Add(core + ".sampling_s", m.sampling_s * per_k, "s/1k_samples");
    report->Add(core + ".rebuild_s", m.rebuild_s * per_k, "s/1k_samples");
    report->Add(core + ".achieved_gflops",
                static_cast<double>(m.traced.realized + m.traced.sparse) /
                    m.traced_step_s * 1e-9,
                "GFLOP/s");
    report->Add(tensor + ".gemm_flops_per_sample",
                static_cast<double>(m.traced.flops) * per_sample, "FLOP");
    report->Add(tensor + ".realized_flop_frac",
                m.traced.flops == 0 ? 0.0
                                    : static_cast<double>(m.traced.realized) /
                                          static_cast<double>(m.traced.flops),
                "fraction");
    report->Add(tensor + ".sparse_flops_per_sample",
                static_cast<double>(m.traced.sparse) * per_sample, "FLOP");
  }
  report->Add("data.fill_batch_us.p50", Quantile(fill_us, 0.5), "us");
  report->Add("data.fill_batch_us.p99", Quantile(fill_us, 0.99), "us");
  report->Add("tensor.nominal_flops_per_sample", static_cast<double>(nominal),
              "FLOP");
  report->Add("tensor.parallel_dispatch_frac",
              all.parallel + all.serial == 0
                  ? 0.0
                  : static_cast<double>(all.parallel) /
                        static_cast<double>(all.parallel + all.serial),
              "fraction");
  report->Add("tensor.pack_a_per_b",
              all.pack_b == 0 ? 0.0
                              : static_cast<double>(all.pack_a) /
                                    static_cast<double>(all.pack_b),
              "ratio");
  report->Add("nn.forward_us", Median(replay->forward_us), "us");
  report->Add("nn.loss_us", Median(replay->loss_us), "us");
  report->Add("nn.backward_us", Median(replay->backward_us), "us");
  report->Add("optim.step_us", Median(replay->optim_us), "us");
  report->Add("nn.eval_rows_per_s", Median(eval_rows_per_s), "1/s");

  EpochTelemetry alsh, mc;
  methods[3].trainer->FillTelemetry(&alsh);
  methods[4].trainer->FillTelemetry(&mc);
  const double mc_steps = static_cast<double>(methods[4].steps);
  report->Add("approx.mc_batch_samples_per_step",
              static_cast<double>(mc.mc_batch_samples) / mc_steps, "count");
  report->Add("approx.mc_delta_samples_per_step",
              static_cast<double>(mc.mc_delta_samples) / mc_steps, "count");
  report->Add("lsh.active_frac", alsh.active_node_fraction, "fraction");
  report->Add("lsh.rebuilds", static_cast<double>(alsh.hash_rebuilds), "count");
  report->Add("lsh.bucket_occupancy_avg", alsh.alsh_avg_bucket_occupancy,
              "count");
  report->Add("lsh.dense_fallbacks",
              static_cast<double>(alsh.alsh_dense_fallbacks), "count");
  return result;
}

}  // namespace perfbench
