// Per-epoch training telemetry, emitted as JSONL (one JSON object per line)
// through a pluggable sink. The schema is documented in DESIGN.md §7 and
// validated by scripts/check_telemetry.py; every field is flat so the lines
// load directly into pandas/jq.

#pragma once

#include <atomic>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>

#include "src/util/status.h"
#include "src/util/sync.h"

namespace sampnn {

/// \brief Destination for telemetry JSONL lines. WriteLine counts every
/// line, so tests can assert that a disabled run wrote nothing.
class TelemetrySink {
 public:
  virtual ~TelemetrySink() = default;

  void WriteLine(std::string_view line) {
    lines_.fetch_add(1, std::memory_order_relaxed);
    DoWrite(line);
  }
  uint64_t lines_written() const {
    return lines_.load(std::memory_order_relaxed);
  }
  virtual Status Flush() { return Status::OK(); }

 protected:
  /// `line` excludes the trailing newline; the sink appends it.
  virtual void DoWrite(std::string_view line) = 0;

 private:
  std::atomic<uint64_t> lines_{0};
};

/// Discards everything (still counts lines).
class NullSink final : public TelemetrySink {
 protected:
  void DoWrite(std::string_view /*line*/) override {}
};

/// Writes lines to stderr.
class StderrSink final : public TelemetrySink {
 protected:
  void DoWrite(std::string_view line) override;
};

/// Appends lines to a file (truncated on open).
class FileSink final : public TelemetrySink {
 public:
  static StatusOr<std::unique_ptr<FileSink>> Open(const std::string& path);
  Status Flush() override;

 protected:
  void DoWrite(std::string_view line) override;

 private:
  explicit FileSink(std::ofstream out) : out_(std::move(out)) {}
  std::ofstream out_;
};

/// "null" -> NullSink, "stderr" -> StderrSink, anything else -> FileSink.
StatusOr<std::unique_ptr<TelemetrySink>> MakeSink(const std::string& spec);

/// One epoch of one training run. Fields that do not apply to a method keep
/// their zero/negative defaults and are still emitted (flat schema).
struct EpochTelemetry {
  std::string run;           ///< harness label (bench name)
  std::string method;        ///< trainer name ("standard", "alsh", ...)
  std::string architecture;  ///< e.g. "784-128-128-10"
  size_t epoch = 0;          ///< 1-based

  double train_loss = 0.0;
  double test_accuracy = 0.0;
  double validation_accuracy = 0.0;
  double epoch_seconds = 0.0;

  // Phase-split seconds for this epoch (deltas of the trainer SplitTimer).
  // `sampling` is a sub-phase nested inside forward/backward, so the four
  // do not sum to epoch_seconds.
  double forward_seconds = 0.0;
  double backward_seconds = 0.0;
  double sampling_seconds = 0.0;
  double rebuild_seconds = 0.0;
  double parallel_seconds = 0.0;

  // ALSH-approx: realized sparsity and index health (cumulative-so-far).
  double active_node_fraction = -1.0;  ///< < 0 when not applicable
  uint64_t hash_rebuilds = 0;
  double alsh_avg_bucket_occupancy = 0.0;
  uint64_t alsh_max_bucket_occupancy = 0;
  uint64_t alsh_nonempty_buckets = 0;

  // MC-approx: realized sample counts (cumulative-so-far).
  uint64_t mc_batch_samples = 0;
  uint64_t mc_delta_samples = 0;

  // Resilience (cumulative-so-far within the run): sentinel-triggered
  // rollbacks, batches whose loss/grad scan found a non-finite value, and
  // ALSH empty-probe dense fallbacks.
  uint64_t rollbacks = 0;
  uint64_t nan_batches = 0;
  uint64_t alsh_dense_fallbacks = 0;

  // FLOPs charged to the dense gemm family / the sparse active-set kernels
  // during this epoch (deltas of the registry counters). `gemm_flops` is
  // the nominal 2*m*n*k cost; `gemm_flops_realized` subtracts the work the
  // input-sparsity shortcuts skipped (VecMat zero rows), so the gap is the
  // FLOP count dropout actually saved.
  uint64_t gemm_flops = 0;
  uint64_t gemm_flops_realized = 0;
  uint64_t sparse_flops = 0;

  // Dense GEMM dispatch fate during this epoch (deltas): products large
  // enough to be partitioned across the kernel pool vs run serially.
  uint64_t gemm_parallel_dispatches = 0;
  uint64_t gemm_serial_dispatches = 0;

  // Blocked-nest activity during this epoch (deltas): shared B panels
  // packed (one per Kc x Nc block), B panels a skinny product read in
  // place instead, thread-local A blocks packed (re-packs across workers
  // included), and microtile-sweep grid tasks executed. The pack ratios
  // expose blocking efficiency — e.g. a_panels per B panel (packed plus
  // in place) growing with worker count means the A-pack cache is missing.
  uint64_t gemm_pack_b_panels = 0;
  uint64_t gemm_inplace_b_panels = 0;
  uint64_t gemm_pack_a_panels = 0;
  uint64_t gemm_block_tasks = 0;

  // Continuous-lifecycle loop (cumulative-so-far within the run; zero for
  // plain training runs, which never drift-detect or promote). A lifecycle
  // "epoch" is one fine-tune round; `drift_score` is the detector's
  // aggregate z at the end of the round.
  double drift_score = 0.0;
  uint64_t drift_trips = 0;
  uint64_t lifecycle_promotions = 0;
  uint64_t lifecycle_rollbacks = 0;
  uint64_t lifecycle_diverged = 0;

  uint64_t rss_bytes = 0;  ///< process RSS at epoch end
};

/// Serializes `rec` to one JSON line (no trailing newline).
std::string EpochTelemetryToJson(const EpochTelemetry& rec);

/// \brief Serializes EpochTelemetry records to a sink as JSONL.
///
/// Record() is a no-op while telemetry is disabled, so a recorder can stay
/// installed permanently at zero cost.
class EpochRecorder {
 public:
  explicit EpochRecorder(std::unique_ptr<TelemetrySink> sink);

  /// Label stamped into the "run" field of every record (bench name).
  void SetRunLabel(std::string label);
  const std::string& run_label() const { return run_label_; }

  void Record(const EpochTelemetry& rec);

  uint64_t records_written() const { return sink_->lines_written(); }
  Status Flush() { return sink_->Flush(); }
  TelemetrySink& sink() { return *sink_; }

 private:
  std::unique_ptr<TelemetrySink> sink_;
  std::string run_label_;
  // Serializes Record() lines. The sink pointer itself is set once at
  // construction; only WriteLine needs mutual exclusion.
  Mutex mu_{"telemetry.epoch_recorder", lockrank::kEpochRecorder};
};

/// Installs/reads the process-wide default recorder used by RunExperiment
/// when the config does not name one. Borrowed pointer; pass nullptr to
/// uninstall before the recorder dies.
void SetGlobalEpochRecorder(EpochRecorder* recorder);
EpochRecorder* GlobalEpochRecorder();

}  // namespace sampnn
