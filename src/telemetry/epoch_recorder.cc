#include "src/telemetry/epoch_recorder.h"

#include <cstdio>
#include <sstream>

#include "src/telemetry/telemetry.h"
#include "src/util/check.h"

namespace sampnn {

void StderrSink::DoWrite(std::string_view line) {
  std::fwrite(line.data(), 1, line.size(), stderr);
  std::fputc('\n', stderr);
}

StatusOr<std::unique_ptr<FileSink>> FileSink::Open(const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) {
    return Status::IOError("cannot open telemetry file for writing: " + path);
  }
  return std::unique_ptr<FileSink>(new FileSink(std::move(out)));
}

void FileSink::DoWrite(std::string_view line) {
  out_.write(line.data(), static_cast<std::streamsize>(line.size()));
  out_.put('\n');
}

Status FileSink::Flush() {
  out_.flush();
  if (!out_) return Status::IOError("telemetry stream error on flush");
  return Status::OK();
}

StatusOr<std::unique_ptr<TelemetrySink>> MakeSink(const std::string& spec) {
  if (spec == "null") return std::unique_ptr<TelemetrySink>(new NullSink());
  if (spec == "stderr") {
    return std::unique_ptr<TelemetrySink>(new StderrSink());
  }
  SAMPNN_ASSIGN_OR_RETURN(std::unique_ptr<FileSink> sink,
                          FileSink::Open(spec));
  return std::unique_ptr<TelemetrySink>(std::move(sink));
}

std::string EpochTelemetryToJson(const EpochTelemetry& rec) {
  std::ostringstream os;
  os.precision(10);
  os << "{\"run\":\"" << JsonEscape(rec.run) << "\",\"method\":\""
     << JsonEscape(rec.method) << "\",\"architecture\":\""
     << JsonEscape(rec.architecture) << "\",\"epoch\":" << rec.epoch
     << ",\"train_loss\":" << rec.train_loss
     << ",\"test_accuracy\":" << rec.test_accuracy
     << ",\"validation_accuracy\":" << rec.validation_accuracy
     << ",\"epoch_seconds\":" << rec.epoch_seconds
     << ",\"forward_seconds\":" << rec.forward_seconds
     << ",\"backward_seconds\":" << rec.backward_seconds
     << ",\"sampling_seconds\":" << rec.sampling_seconds
     << ",\"rebuild_seconds\":" << rec.rebuild_seconds
     << ",\"parallel_seconds\":" << rec.parallel_seconds
     << ",\"active_node_fraction\":" << rec.active_node_fraction
     << ",\"hash_rebuilds\":" << rec.hash_rebuilds
     << ",\"alsh_avg_bucket_occupancy\":" << rec.alsh_avg_bucket_occupancy
     << ",\"alsh_max_bucket_occupancy\":" << rec.alsh_max_bucket_occupancy
     << ",\"alsh_nonempty_buckets\":" << rec.alsh_nonempty_buckets
     << ",\"mc_batch_samples\":" << rec.mc_batch_samples
     << ",\"mc_delta_samples\":" << rec.mc_delta_samples
     << ",\"rollbacks\":" << rec.rollbacks
     << ",\"nan_batches\":" << rec.nan_batches
     << ",\"alsh_dense_fallbacks\":" << rec.alsh_dense_fallbacks
     << ",\"gemm_flops\":" << rec.gemm_flops
     << ",\"gemm_flops_realized\":" << rec.gemm_flops_realized
     << ",\"sparse_flops\":" << rec.sparse_flops
     << ",\"gemm_parallel_dispatches\":" << rec.gemm_parallel_dispatches
     << ",\"gemm_serial_dispatches\":" << rec.gemm_serial_dispatches
     << ",\"gemm_pack_b_panels\":" << rec.gemm_pack_b_panels
     << ",\"gemm_inplace_b_panels\":" << rec.gemm_inplace_b_panels
     << ",\"gemm_pack_a_panels\":" << rec.gemm_pack_a_panels
     << ",\"gemm_block_tasks\":" << rec.gemm_block_tasks
     << ",\"drift_score\":" << rec.drift_score
     << ",\"drift_trips\":" << rec.drift_trips
     << ",\"lifecycle_promotions\":" << rec.lifecycle_promotions
     << ",\"lifecycle_rollbacks\":" << rec.lifecycle_rollbacks
     << ",\"lifecycle_diverged\":" << rec.lifecycle_diverged
     << ",\"rss_bytes\":" << rec.rss_bytes << "}";
  return os.str();
}

EpochRecorder::EpochRecorder(std::unique_ptr<TelemetrySink> sink)
    : sink_(std::move(sink)) {
  SAMPNN_CHECK(sink_ != nullptr);
}

void EpochRecorder::SetRunLabel(std::string label) {
  run_label_ = std::move(label);
}

void EpochRecorder::Record(const EpochTelemetry& rec) {
  if (!TelemetryEnabled()) return;
  std::string line;
  if (rec.run.empty() && !run_label_.empty()) {
    EpochTelemetry labeled = rec;
    labeled.run = run_label_;
    line = EpochTelemetryToJson(labeled);
  } else {
    line = EpochTelemetryToJson(rec);
  }
  MutexLock lock(mu_);
  sink_->WriteLine(line);
}

namespace {
std::atomic<EpochRecorder*> g_epoch_recorder{nullptr};
}  // namespace

void SetGlobalEpochRecorder(EpochRecorder* recorder) {
  g_epoch_recorder.store(recorder, std::memory_order_release);
}

EpochRecorder* GlobalEpochRecorder() {
  return g_epoch_recorder.load(std::memory_order_acquire);
}

}  // namespace sampnn
