#include "src/telemetry/epoch_recorder.h"

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>

#include <gtest/gtest.h>

#include "src/telemetry/telemetry.h"

namespace sampnn {
namespace {

class EpochRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override { SetTelemetryEnabled(false); }
  void TearDown() override {
    SetTelemetryEnabled(false);
    SetGlobalEpochRecorder(nullptr);
  }
};

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControlChars) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(JsonEscape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(EpochTelemetryJsonTest, EmitsFlatSchemaWithAllFields) {
  EpochTelemetry rec;
  rec.run = "bench_x";
  rec.method = "alsh";
  rec.architecture = "100-32-32-4";
  rec.epoch = 3;
  rec.train_loss = 0.5;
  rec.test_accuracy = 0.75;
  rec.active_node_fraction = 0.05;
  rec.hash_rebuilds = 7;
  rec.gemm_flops = 12345;
  rec.gemm_pack_b_panels = 11;
  rec.gemm_inplace_b_panels = 22;
  const std::string json = EpochTelemetryToJson(rec);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  for (const char* key :
       {"\"run\":\"bench_x\"", "\"method\":\"alsh\"",
        "\"architecture\":\"100-32-32-4\"", "\"epoch\":3", "\"train_loss\":",
        "\"test_accuracy\":", "\"validation_accuracy\":", "\"epoch_seconds\":",
        "\"forward_seconds\":", "\"backward_seconds\":", "\"sampling_seconds\":",
        "\"rebuild_seconds\":", "\"parallel_seconds\":",
        "\"active_node_fraction\":", "\"hash_rebuilds\":7",
        "\"alsh_avg_bucket_occupancy\":", "\"alsh_max_bucket_occupancy\":",
        "\"alsh_nonempty_buckets\":", "\"mc_batch_samples\":",
        "\"mc_delta_samples\":", "\"gemm_flops\":12345", "\"sparse_flops\":",
        "\"gemm_pack_b_panels\":11", "\"gemm_inplace_b_panels\":22",
        "\"gemm_pack_a_panels\":", "\"gemm_block_tasks\":",
        "\"rss_bytes\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " missing: " << json;
  }
  // JSONL: one record per line, so the payload itself must be single-line.
  EXPECT_EQ(json.find('\n'), std::string::npos);
}

TEST(SinkTest, MakeSinkMapsSpecs) {
  auto null_sink = MakeSink("null");
  ASSERT_TRUE(null_sink.ok());
  EXPECT_NE(dynamic_cast<NullSink*>(null_sink->get()), nullptr);
  auto stderr_sink = MakeSink("stderr");
  ASSERT_TRUE(stderr_sink.ok());
  EXPECT_NE(dynamic_cast<StderrSink*>(stderr_sink->get()), nullptr);
  const std::string path = ::testing::TempDir() + "/sink_test.jsonl";
  auto file_sink = MakeSink(path);
  ASSERT_TRUE(file_sink.ok());
  EXPECT_NE(dynamic_cast<FileSink*>(file_sink->get()), nullptr);
  std::remove(path.c_str());
}

TEST(SinkTest, CountsLinesAndFileSinkPersistsThem) {
  const std::string path = ::testing::TempDir() + "/file_sink_test.jsonl";
  auto sink = std::move(MakeSink(path)).value();
  EXPECT_EQ(sink->lines_written(), 0u);
  sink->WriteLine("{\"a\":1}");
  sink->WriteLine("{\"b\":2}");
  EXPECT_EQ(sink->lines_written(), 2u);
  ASSERT_TRUE(sink->Flush().ok());
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  EXPECT_EQ(os.str(), "{\"a\":1}\n{\"b\":2}\n");
  std::remove(path.c_str());
}

TEST_F(EpochRecorderTest, RecordIsNoOpWhileDisabled) {
  EpochRecorder recorder(std::make_unique<NullSink>());
  EpochTelemetry rec;
  rec.method = "standard";
  recorder.Record(rec);
  EXPECT_EQ(recorder.records_written(), 0u);
}

TEST_F(EpochRecorderTest, RecordWritesOneLinePerEpochWhenEnabled) {
  SetTelemetryEnabled(true);
  const std::string path = ::testing::TempDir() + "/recorder_test.jsonl";
  EpochRecorder recorder(std::move(MakeSink(path)).value());
  recorder.SetRunLabel("my_bench");
  EpochTelemetry rec;
  rec.method = "standard";
  rec.epoch = 1;
  recorder.Record(rec);
  rec.epoch = 2;
  rec.run = "explicit_run";  // explicit label wins over the recorder default
  recorder.Record(rec);
  EXPECT_EQ(recorder.records_written(), 2u);
  ASSERT_TRUE(recorder.Flush().ok());
  std::ifstream in(path);
  std::string line1, line2;
  ASSERT_TRUE(std::getline(in, line1));
  ASSERT_TRUE(std::getline(in, line2));
  EXPECT_NE(line1.find("\"run\":\"my_bench\""), std::string::npos);
  EXPECT_NE(line1.find("\"epoch\":1"), std::string::npos);
  EXPECT_NE(line2.find("\"run\":\"explicit_run\""), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(EpochRecorderTest, GlobalRecorderInstallAndUninstall) {
  EXPECT_EQ(GlobalEpochRecorder(), nullptr);
  EpochRecorder recorder(std::make_unique<NullSink>());
  SetGlobalEpochRecorder(&recorder);
  EXPECT_EQ(GlobalEpochRecorder(), &recorder);
  SetGlobalEpochRecorder(nullptr);
  EXPECT_EQ(GlobalEpochRecorder(), nullptr);
}

}  // namespace
}  // namespace sampnn
