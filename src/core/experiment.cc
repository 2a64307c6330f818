#include "src/core/experiment.h"

#include <cmath>
#include <csignal>
#include <cstdio>
#include <optional>
#include <sstream>

#include "src/data/batcher.h"
#include "src/metrics/accuracy.h"
#include "src/metrics/memory_tracker.h"
#include "src/metrics/split_timer.h"
#include "src/resilience/checkpoint.h"
#include "src/resilience/fault_injector.h"
#include "src/telemetry/epoch_recorder.h"
#include "src/telemetry/metrics_registry.h"
#include "src/telemetry/telemetry.h"
#include "src/telemetry/trace.h"
#include "src/util/binary_io.h"

namespace sampnn {

namespace {

// Everything positional about a run that must survive a crash or a sentinel
// rollback: where we are, and the loss/recovery accounting so far.
struct RunCursor {
  uint64_t epoch = 1;           // 1-based, currently training
  uint64_t batch_in_epoch = 0;  // completed batches in this epoch
  uint64_t global_step = 0;     // completed batches across all epochs
  double loss_sum = 0.0;        // this epoch's summed minibatch loss
  uint64_t rollbacks = 0;       // sentinel rollbacks over the whole run
  uint64_t nan_batches = 0;     // batches rejected for non-finite loss/grads
  uint64_t retries = 0;         // rollbacks since the last good snapshot
};

constexpr uint32_t kPayloadVersion = 1;

// Serializes the complete run state — cursor, learning rate, sentinel EWMA,
// finished epoch records, batch stream, and the trainer blob (weights,
// optimizer moments, RNG streams, ALSH buckets) — into one opaque payload
// for CheckpointWriter. The same bytes double as the in-memory rollback
// snapshot for the divergence sentinel.
StatusOr<std::string> BuildPayload(const Trainer& trainer,
                                   const Batcher& batcher,
                                   const RunCursor& cur,
                                   const DivergenceSentinel& sentinel,
                                   const std::vector<EpochRecord>& completed) {
  std::ostringstream out(std::ios::binary);
  WriteU32(out, kPayloadVersion);
  WriteU64(out, cur.epoch);
  WriteU64(out, cur.batch_in_epoch);
  WriteU64(out, cur.global_step);
  WriteF64(out, cur.loss_sum);
  WriteU64(out, cur.rollbacks);
  WriteU64(out, cur.nan_batches);
  WriteU64(out, cur.retries);
  WriteF32(out, trainer.learning_rate());
  WriteF64(out, sentinel.ewma());
  WriteU64(out, sentinel.observed());
  WriteU64(out, completed.size());
  for (const EpochRecord& r : completed) {
    WriteU64(out, r.epoch);
    WriteF64(out, r.train_loss);
    WriteF64(out, r.test_accuracy);
    WriteF64(out, r.validation_accuracy);
    WriteF64(out, r.seconds);
  }
  SAMPNN_RETURN_NOT_OK(batcher.SaveState(out));
  SAMPNN_RETURN_NOT_OK(trainer.SaveState(out));
  if (!out) return Status::IOError("run-state serialization failed");
  return std::move(out).str();
}

// Inverse of BuildPayload. Only commits into the out-parameters after every
// read validated, so a failed restore leaves the caller's state untouched
// apart from the trainer (whose LoadState already validates shapes before
// mutating anything).
Status RestorePayload(const std::string& payload, Trainer* trainer,
                      Batcher* batcher, RunCursor* cur,
                      DivergenceSentinel* sentinel,
                      std::vector<EpochRecord>* completed) {
  std::istringstream in(payload, std::ios::binary);
  SAMPNN_ASSIGN_OR_RETURN(const uint32_t version, ReadU32(in));
  if (version != kPayloadVersion) {
    return Status::InvalidArgument("unsupported checkpoint payload version " +
                                   std::to_string(version));
  }
  RunCursor c;
  SAMPNN_ASSIGN_OR_RETURN(c.epoch, ReadU64(in));
  SAMPNN_ASSIGN_OR_RETURN(c.batch_in_epoch, ReadU64(in));
  SAMPNN_ASSIGN_OR_RETURN(c.global_step, ReadU64(in));
  SAMPNN_ASSIGN_OR_RETURN(c.loss_sum, ReadF64(in));
  SAMPNN_ASSIGN_OR_RETURN(c.rollbacks, ReadU64(in));
  SAMPNN_ASSIGN_OR_RETURN(c.nan_batches, ReadU64(in));
  SAMPNN_ASSIGN_OR_RETURN(c.retries, ReadU64(in));
  SAMPNN_ASSIGN_OR_RETURN(const float lr, ReadF32(in));
  SAMPNN_ASSIGN_OR_RETURN(const double ewma, ReadF64(in));
  SAMPNN_ASSIGN_OR_RETURN(const uint64_t observed, ReadU64(in));
  SAMPNN_ASSIGN_OR_RETURN(const uint64_t num_records, ReadU64(in));
  if (!FitsRemaining(in, num_records, 5 * sizeof(uint64_t))) {
    return Status::InvalidArgument("checkpoint epoch-record count " +
                                   std::to_string(num_records) +
                                   " exceeds payload size");
  }
  std::vector<EpochRecord> records;
  records.reserve(num_records);
  for (uint64_t i = 0; i < num_records; ++i) {
    EpochRecord r;
    SAMPNN_ASSIGN_OR_RETURN(const uint64_t epoch, ReadU64(in));
    r.epoch = static_cast<size_t>(epoch);
    SAMPNN_ASSIGN_OR_RETURN(r.train_loss, ReadF64(in));
    SAMPNN_ASSIGN_OR_RETURN(r.test_accuracy, ReadF64(in));
    SAMPNN_ASSIGN_OR_RETURN(r.validation_accuracy, ReadF64(in));
    SAMPNN_ASSIGN_OR_RETURN(r.seconds, ReadF64(in));
    records.push_back(r);
  }
  SAMPNN_RETURN_NOT_OK(batcher->LoadState(in));
  SAMPNN_RETURN_NOT_OK(trainer->LoadState(in));
  trainer->set_learning_rate(lr);
  sentinel->RestoreState(ewma, observed);
  *cur = c;
  *completed = std::move(records);
  return Status::OK();
}

}  // namespace

StatusOr<ExperimentResult> RunExperiment(const MlpConfig& net_config,
                                         const ExperimentConfig& config,
                                         const DatasetSplits& data) {
  if (config.epochs == 0) {
    return Status::InvalidArgument("ExperimentConfig.epochs must be >= 1");
  }
  if (config.batch_size == 0) {
    return Status::InvalidArgument("ExperimentConfig.batch_size must be >= 1");
  }
  if (data.train.size() == 0) {
    return Status::InvalidArgument("empty training split");
  }
  const ResilienceOptions& res = config.resilience;
  if (res.resume && res.checkpoint_dir.empty()) {
    return Status::InvalidArgument(
        "ResilienceOptions.resume requires checkpoint_dir");
  }
  SAMPNN_ASSIGN_OR_RETURN(std::unique_ptr<Trainer> trainer,
                          MakeTrainer(net_config, config.trainer));
  // The sentinel wants the squared gradient norm when the trainer computes
  // dense grads; trainers without one report -1 (norm scan skipped).
  if (res.sentinel.enabled) trainer->set_track_grad_norm(true);

  ExperimentResult result;
  result.method = trainer->name();
  result.architecture = trainer->net().ArchitectureString();

  MemoryTracker memory;
  Batcher batcher(data.train, config.batch_size, config.data_seed,
                  config.drop_remainder);
  Matrix x;
  std::vector<int32_t> y;

  DivergenceSentinel sentinel(res.sentinel);
  std::optional<CheckpointWriter> writer;
  if (!res.checkpoint_dir.empty()) {
    CheckpointWriterOptions writer_options;
    writer_options.dir = res.checkpoint_dir;
    writer_options.retain = res.retain;
    SAMPNN_ASSIGN_OR_RETURN(CheckpointWriter w,
                            CheckpointWriter::Create(writer_options));
    writer.emplace(std::move(w));
  }

  RunCursor cur;
  if (res.resume) {
    auto latest = LatestValidCheckpoint(res.checkpoint_dir);
    if (latest.ok()) {
      SAMPNN_RETURN_NOT_OK(RestorePayload(latest.value().payload,
                                          trainer.get(), &batcher, &cur,
                                          &sentinel, &result.epochs));
      // Wall-clock of the finished epochs carries over; this process's
      // phase timers restart at zero, so the telemetry deltas stay correct.
      for (const EpochRecord& r : result.epochs) {
        result.train_seconds += r.seconds;
      }
      if (config.verbose) {
        std::fprintf(stderr, "  [%s] resumed from %s (epoch %llu, step %llu)\n",
                     result.method.c_str(), latest.value().path.c_str(),
                     static_cast<unsigned long long>(cur.epoch),
                     static_cast<unsigned long long>(cur.global_step));
      }
    } else if (!latest.status().IsNotFound()) {
      return latest.status();
    }
    // NotFound = no usable checkpoint yet: start fresh.
  }

  // In-memory rollback target. Refreshed at every checkpoint write and at
  // epoch boundaries, so a sentinel trip rewinds at most one cadence.
  std::string snapshot;
  if (res.sentinel.enabled) {
    SAMPNN_ASSIGN_OR_RETURN(
        snapshot, BuildPayload(*trainer, batcher, cur, sentinel,
                               result.epochs));
  }

  EpochRecorder* recorder =
      config.telemetry != nullptr ? config.telemetry : GlobalEpochRecorder();
  // Cumulative baselines: the trainer SplitTimer and the registry FLOP
  // counters only grow, so per-epoch values are deltas against these.
  struct PhaseBaseline {
    double forward = 0.0, backward = 0.0, sampling = 0.0;
    double rebuild = 0.0, parallel = 0.0;
    uint64_t gemm_flops = 0, gemm_flops_realized = 0, sparse_flops = 0;
    uint64_t gemm_parallel = 0, gemm_serial = 0;
    uint64_t pack_b = 0, inplace_b = 0, pack_a = 0, block_tasks = 0;
  } prev;
  if (recorder != nullptr && TelemetryEnabled()) {
    // The FLOP counters are process-global; start from their current values
    // so concurrent earlier runs do not leak into epoch 1's delta.
    MetricsRegistry& registry = MetricsRegistry::Get();
    prev.gemm_flops = registry.GetCounter("tensor.gemm.flops").Value();
    prev.gemm_flops_realized =
        registry.GetCounter("tensor.gemm.flops_realized").Value();
    prev.sparse_flops = registry.GetCounter("tensor.sparse.flops").Value();
    prev.gemm_parallel =
        registry.GetCounter("tensor.gemm.parallel_dispatches").Value();
    prev.gemm_serial =
        registry.GetCounter("tensor.gemm.serial_dispatches").Value();
    prev.pack_b = registry.GetCounter("tensor.gemm.pack_b_panels").Value();
    prev.inplace_b =
        registry.GetCounter("tensor.gemm.inplace_b_panels").Value();
    prev.pack_a = registry.GetCounter("tensor.gemm.pack_a_panels").Value();
    prev.block_tasks =
        registry.GetCounter("tensor.gemm.block_tasks").Value();
  }

  // The loop is flat — one iteration per batch, epoch boundaries detected
  // when the batcher wraps — so the cursor (and with it, checkpoints and
  // rollbacks) can live at any batch position, not just epoch edges.
  Stopwatch epoch_watch;
  while (cur.epoch <= config.epochs) {
    if (batcher.Next(&x, &y)) {
      // ---- one training batch ----
      if (FaultInjector* fi = FaultInjector::Global()) {
        // Keep "@step" aligned with the uninterrupted run's numbering even
        // after a resume or rollback rewinds the cursor.
        fi->set_step(cur.global_step);
        if (fi->ShouldFire(FaultKind::kKill)) {
          std::raise(SIGKILL);  // a real crash, mid-run
        }
        if (fi->ShouldFire(FaultKind::kHaltTraining)) {
          return Status::Internal(
              "fault injection: training halted at step " +
              std::to_string(cur.global_step));
        }
      }
      SAMPNN_ASSIGN_OR_RETURN(double loss, trainer->Step(x, y));
      cur.loss_sum += loss;
      ++cur.batch_in_epoch;
      ++cur.global_step;

      if (res.sentinel.enabled) {
        const DivergenceSentinel::Verdict verdict =
            sentinel.Observe(loss, trainer->last_grad_norm2());
        if (verdict != DivergenceSentinel::Verdict::kOk) {
          // Rollback: rewind to the last good snapshot, back off the
          // learning rate, and retry from there. The recovery accounting
          // must survive the rewind, so stash it across the restore.
          const bool nan_batch =
              verdict != DivergenceSentinel::Verdict::kLossSpike;
          const uint64_t rollbacks = cur.rollbacks + 1;
          const uint64_t nan_batches = cur.nan_batches + (nan_batch ? 1 : 0);
          const uint64_t retries = cur.retries + 1;
          if (TelemetryEnabled()) {
            static Counter& rollback_counter =
                MetricsRegistry::Get().GetCounter("resilience.rollbacks");
            rollback_counter.Increment();
            if (nan_batch) {
              static Counter& nan_counter =
                  MetricsRegistry::Get().GetCounter("resilience.nan_batches");
              nan_counter.Increment();
            }
          }
          if (retries > res.sentinel.max_retries) {
            return Status::Internal(
                std::string("training diverged (") +
                SentinelVerdictToString(verdict) + " at step " +
                std::to_string(cur.global_step - 1) + "): " +
                std::to_string(cur.retries) +
                " rollbacks from the last good snapshot did not recover");
          }
          SAMPNN_RETURN_NOT_OK(RestorePayload(snapshot, trainer.get(),
                                              &batcher, &cur, &sentinel,
                                              &result.epochs));
          cur.rollbacks = rollbacks;
          cur.nan_batches = nan_batches;
          cur.retries = retries;
          const float snapshot_lr = trainer->learning_rate();
          const float backed_off =
              snapshot_lr * std::pow(res.sentinel.lr_backoff,
                                     static_cast<float>(retries));
          trainer->set_learning_rate(backed_off);
          if (config.verbose) {
            std::fprintf(
                stderr,
                "  [%s] rollback %llu (%s): step -> %llu, lr %g -> %g\n",
                result.method.c_str(),
                static_cast<unsigned long long>(rollbacks),
                SentinelVerdictToString(verdict),
                static_cast<unsigned long long>(cur.global_step),
                snapshot_lr, backed_off);
          }
          continue;
        }
      }

      if (writer.has_value() && res.checkpoint_every > 0 &&
          cur.global_step % res.checkpoint_every == 0) {
        TraceSpan span("checkpoint");
        SAMPNN_ASSIGN_OR_RETURN(
            snapshot, BuildPayload(*trainer, batcher, cur, sentinel,
                                   result.epochs));
        cur.retries = 0;
        const Status status = writer->Write(cur.global_step, snapshot);
        if (!status.ok()) {
          // Training is still sound on a failed persist — log, count, and
          // carry on; the in-memory snapshot stays usable for rollbacks.
          std::fprintf(stderr, "  [%s] checkpoint write failed: %s\n",
                       result.method.c_str(), status.ToString().c_str());
          if (TelemetryEnabled()) {
            static Counter& failures = MetricsRegistry::Get().GetCounter(
                "resilience.checkpoint_failures");
            failures.Increment();
          }
        }
      }
      continue;
    }

    // ---- epoch boundary (the batcher wrapped and reshuffled) ----
    trainer->OnEpochEnd();

    EpochRecord record;
    record.epoch = cur.epoch;
    record.train_loss =
        cur.batch_in_epoch > 0 ? cur.loss_sum / cur.batch_in_epoch : 0.0;
    record.seconds = epoch_watch.Elapsed();
    result.train_seconds += record.seconds;
    if (config.eval_each_epoch || cur.epoch == config.epochs) {
      record.test_accuracy =
          EvaluateAccuracy(trainer->net(), data.test, config.eval_batch);
      if (data.validation.size() > 0) {
        record.validation_accuracy = EvaluateAccuracy(
            trainer->net(), data.validation, config.eval_batch);
      }
    }
    if (config.verbose) {
      std::fprintf(stderr,
                   "  [%s] epoch %zu/%zu loss=%.4f test_acc=%.2f%% (%.2fs)\n",
                   result.method.c_str(), static_cast<size_t>(cur.epoch),
                   config.epochs, record.train_loss,
                   100.0 * record.test_accuracy, record.seconds);
    }
    result.epochs.push_back(record);

    if (recorder != nullptr && TelemetryEnabled()) {
      TraceSpan span("telemetry_record");
      EpochTelemetry t;
      t.run = config.run_label;
      t.method = result.method;
      t.architecture = result.architecture;
      t.epoch = cur.epoch;
      t.rollbacks = cur.rollbacks;
      t.nan_batches = cur.nan_batches;
      t.train_loss = record.train_loss;
      t.test_accuracy = record.test_accuracy;
      t.validation_accuracy = record.validation_accuracy;
      t.epoch_seconds = record.seconds;
      const SplitTimer& phases = trainer->timer();
      const double forward = phases.Seconds(kPhaseForward);
      const double backward = phases.Seconds(kPhaseBackward);
      const double sampling = phases.Seconds(kPhaseSampling);
      const double rebuild = phases.Seconds(kPhaseHashRebuild);
      const double parallel = phases.Seconds("parallel");
      t.forward_seconds = forward - prev.forward;
      t.backward_seconds = backward - prev.backward;
      t.sampling_seconds = sampling - prev.sampling;
      t.rebuild_seconds = rebuild - prev.rebuild;
      t.parallel_seconds = parallel - prev.parallel;
      prev.forward = forward;
      prev.backward = backward;
      prev.sampling = sampling;
      prev.rebuild = rebuild;
      prev.parallel = parallel;
      MetricsRegistry& registry = MetricsRegistry::Get();
      const uint64_t gemm = registry.GetCounter("tensor.gemm.flops").Value();
      const uint64_t gemm_realized =
          registry.GetCounter("tensor.gemm.flops_realized").Value();
      const uint64_t sparse =
          registry.GetCounter("tensor.sparse.flops").Value();
      const uint64_t gemm_parallel =
          registry.GetCounter("tensor.gemm.parallel_dispatches").Value();
      const uint64_t gemm_serial =
          registry.GetCounter("tensor.gemm.serial_dispatches").Value();
      t.gemm_flops = gemm - prev.gemm_flops;
      t.gemm_flops_realized = gemm_realized - prev.gemm_flops_realized;
      t.sparse_flops = sparse - prev.sparse_flops;
      const uint64_t pack_b =
          registry.GetCounter("tensor.gemm.pack_b_panels").Value();
      const uint64_t inplace_b =
          registry.GetCounter("tensor.gemm.inplace_b_panels").Value();
      const uint64_t pack_a =
          registry.GetCounter("tensor.gemm.pack_a_panels").Value();
      const uint64_t block_tasks =
          registry.GetCounter("tensor.gemm.block_tasks").Value();
      t.gemm_parallel_dispatches = gemm_parallel - prev.gemm_parallel;
      t.gemm_serial_dispatches = gemm_serial - prev.gemm_serial;
      t.gemm_pack_b_panels = pack_b - prev.pack_b;
      t.gemm_inplace_b_panels = inplace_b - prev.inplace_b;
      t.gemm_pack_a_panels = pack_a - prev.pack_a;
      t.gemm_block_tasks = block_tasks - prev.block_tasks;
      prev.gemm_flops = gemm;
      prev.gemm_flops_realized = gemm_realized;
      prev.sparse_flops = sparse;
      prev.gemm_parallel = gemm_parallel;
      prev.gemm_serial = gemm_serial;
      prev.pack_b = pack_b;
      prev.inplace_b = inplace_b;
      prev.pack_a = pack_a;
      prev.block_tasks = block_tasks;
      trainer->FillTelemetry(&t);
      t.rss_bytes = memory.CurrentBytes();
      recorder->Record(t);
    }

    // Advance to the next epoch before snapshotting, so a resume or
    // rollback from this point starts cleanly at the new epoch.
    ++cur.epoch;
    cur.batch_in_epoch = 0;
    cur.loss_sum = 0.0;
    epoch_watch.Restart();

    const bool boundary_checkpoint = writer.has_value() &&
                                     res.checkpoint_every == 0 &&
                                     cur.epoch <= config.epochs;
    if (boundary_checkpoint || res.sentinel.enabled) {
      TraceSpan span("checkpoint");
      SAMPNN_ASSIGN_OR_RETURN(
          snapshot, BuildPayload(*trainer, batcher, cur, sentinel,
                                 result.epochs));
      cur.retries = 0;
      if (boundary_checkpoint) {
        const Status status = writer->Write(cur.global_step, snapshot);
        if (!status.ok()) {
          std::fprintf(stderr, "  [%s] checkpoint write failed: %s\n",
                       result.method.c_str(), status.ToString().c_str());
          if (TelemetryEnabled()) {
            static Counter& failures = MetricsRegistry::Get().GetCounter(
                "resilience.checkpoint_failures");
            failures.Increment();
          }
        }
      }
    }
  }

  const SplitTimer& timer = trainer->timer();
  result.forward_seconds = timer.Seconds(kPhaseForward);
  result.backward_seconds = timer.Seconds(kPhaseBackward);
  result.rebuild_seconds = timer.Seconds(kPhaseHashRebuild);
  result.parallel_seconds = timer.Seconds("parallel");
  result.final_test_accuracy = result.epochs.back().test_accuracy;
  result.final_validation_accuracy = result.epochs.back().validation_accuracy;
  result.rss_growth_bytes = memory.GrowthBytes();
  result.confusion = ComputeConfusion(trainer->net(), data.test,
                                      config.eval_batch);
  return result;
}

MlpConfig PaperMlpConfig(const Dataset& train, size_t depth, size_t width,
                         uint64_t seed) {
  MlpConfig cfg = MlpConfig::Uniform(train.dim(), train.num_classes(), depth,
                                     width);
  cfg.hidden_activation = Activation::kRelu;  // §8.4
  cfg.initializer = Initializer::kHe;
  cfg.seed = seed;
  return cfg;
}

TrainerOptions PaperTrainerOptions(TrainerKind kind, size_t batch_size,
                                   uint64_t seed) {
  TrainerOptions options;
  options.kind = kind;
  options.seed = seed;
  options.optimizer = "adam";  // §8.4: Adam performs best incl. for ALSH
  options.learning_rate = 1e-3f;
  switch (kind) {
    case TrainerKind::kStandard:
      break;
    case TrainerKind::kDropout:
      options.dropout.keep_prob = 0.05f;  // §8.4: p matched to ALSH
      break;
    case TrainerKind::kAdaptiveDropout:
      options.adaptive_dropout.target_prob = 0.05f;
      break;
    case TrainerKind::kAlsh:
      options.alsh.index.bits = 6;     // K = 6
      options.alsh.index.tables = 5;   // L = 5
      options.alsh.index.transform.m = 3;
      options.alsh.optimizer = "adam";
      break;
    case TrainerKind::kMc:
      options.mc.grad_batch_samples = 10;  // k = 10
      options.mc.delta_sample_ratio = 0.1;
      break;
  }
  // §8.4: "The learning rate is always either 1e-4 or 1e-3 depending on the
  // setting." Batch-1 Adam at 1e-3 is unstable (dead-ReLU collapse on the
  // noisier datasets; for MC^S, §9.3's overfitting), so every dense method
  // uses 1e-4 in the stochastic setting. ALSH keeps 1e-3: its per-column
  // update frequency is ~active-fraction of the step count, so the
  // effective rate is already far lower.
  if (batch_size <= 1 && kind != TrainerKind::kAlsh) {
    options.learning_rate = 1e-4f;
  }
  return options;
}

}  // namespace sampnn
