#include "src/nn/serialize.h"

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

namespace sampnn {
namespace {

class SerializeTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  // One file per test: ctest runs the tests of a suite as parallel
  // processes, which must not share it.
  std::string path_ =
      ::testing::TempDir() + "/sampnn_model_test_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".bin";
};

Mlp TrainedLikeNet(uint64_t seed = 9) {
  MlpConfig cfg = MlpConfig::Uniform(6, 3, 2, 8);
  cfg.seed = seed;
  cfg.hidden_activation = Activation::kTanh;
  Mlp net = std::move(Mlp::Create(cfg)).value();
  // Perturb so the parameters differ from any fresh initialization.
  net.layer(1).weights()(2, 3) = 42.5f;
  net.layer(0).bias()[1] = -7.25f;
  return net;
}

TEST_F(SerializeTest, RoundTripPreservesEverything) {
  Mlp original = TrainedLikeNet();
  ASSERT_TRUE(SaveMlp(original, path_).ok());
  auto loaded = LoadMlp(path_);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->num_layers(), original.num_layers());
  EXPECT_EQ(loaded->ArchitectureString(), original.ArchitectureString());
  for (size_t k = 0; k < original.num_layers(); ++k) {
    EXPECT_TRUE(loaded->layer(k).weights().AllClose(
        original.layer(k).weights(), 0.0f));
    EXPECT_EQ(loaded->layer(k).activation(), original.layer(k).activation());
    auto lb = loaded->layer(k).bias();
    auto ob = original.layer(k).bias();
    for (size_t j = 0; j < ob.size(); ++j) EXPECT_EQ(lb[j], ob[j]);
  }
}

TEST_F(SerializeTest, LoadedModelPredictsIdentically) {
  Mlp original = TrainedLikeNet();
  ASSERT_TRUE(SaveMlp(original, path_).ok());
  Mlp loaded = std::move(LoadMlp(path_)).value();
  Rng rng(3);
  Matrix x = Matrix::RandomGaussian(10, 6, rng);
  MlpWorkspace ws1, ws2;
  EXPECT_TRUE(
      original.Forward(x, &ws1).AllClose(loaded.Forward(x, &ws2), 0.0f));
}

TEST_F(SerializeTest, NoHiddenLayerModelRoundTrips) {
  MlpConfig cfg = MlpConfig::Uniform(4, 2, 0, 0);
  Mlp net = std::move(Mlp::Create(cfg)).value();
  ASSERT_TRUE(SaveMlp(net, path_).ok());
  auto loaded = LoadMlp(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_layers(), 1u);
}

TEST_F(SerializeTest, MissingFileIsIOError) {
  EXPECT_TRUE(LoadMlp("/does/not/exist.bin").status().IsIOError());
}

TEST_F(SerializeTest, BadMagicIsInvalidArgument) {
  std::ofstream out(path_, std::ios::binary);
  out << "JUNKJUNKJUNK";
  out.close();
  EXPECT_TRUE(LoadMlp(path_).status().IsInvalidArgument());
}

TEST_F(SerializeTest, TruncatedFileIsInvalidArgument) {
  Mlp net = TrainedLikeNet();
  ASSERT_TRUE(SaveMlp(net, path_).ok());
  // Chop the file in half.
  std::ifstream in(path_, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  out.write(content.data(),
            static_cast<std::streamsize>(content.size() / 2));
  out.close();
  EXPECT_TRUE(LoadMlp(path_).status().IsInvalidArgument());
}

TEST_F(SerializeTest, UnwritablePathIsIOError) {
  Mlp net = TrainedLikeNet();
  EXPECT_TRUE(SaveMlp(net, "/nonexistent-dir-xyz/model.bin").IsIOError());
}

// Helpers for crafting deliberately corrupt "SNN1" images: little-endian
// u64 fields after the 4-byte magic, matching src/nn/serialize.cc.
void PutU64Le(std::ofstream& out, uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out.write(buf, 8);
}

TEST_F(SerializeTest, GarbageLayerCountRejectedBeforeAllocating) {
  std::ofstream out(path_, std::ios::binary);
  out.write("SNN1", 4);
  // A corrupt count must be rejected by the plausibility check, not drive
  // a ~2^64-element reserve.
  PutU64Le(out, 0xFFFFFFFFFFFFFFFFull);
  out.close();
  EXPECT_TRUE(LoadMlp(path_).status().IsInvalidArgument());
}

TEST_F(SerializeTest, ImplausibleLayerDimensionRejectedBeforeAllocating) {
  std::ofstream out(path_, std::ios::binary);
  out.write("SNN1", 4);
  PutU64Le(out, 1);          // one layer
  PutU64Le(out, 1ull << 40); // in_dim: absurd
  PutU64Le(out, 8);          // out_dim
  PutU64Le(out, 0);          // activation
  out.close();
  EXPECT_TRUE(LoadMlp(path_).status().IsInvalidArgument());
}

TEST_F(SerializeTest, DeclaredParametersPastEndOfFileRejected) {
  std::ofstream out(path_, std::ios::binary);
  out.write("SNN1", 4);
  PutU64Le(out, 1);   // one layer
  PutU64Le(out, 64);  // in_dim
  PutU64Le(out, 64);  // out_dim: 64x64 weights declared...
  PutU64Le(out, 0);   // activation
  out.write("tiny", 4);  // ...but almost no payload present
  out.close();
  EXPECT_TRUE(LoadMlp(path_).status().IsInvalidArgument());
}

TEST_F(SerializeTest, UnknownActivationIdRejected) {
  std::ofstream out(path_, std::ios::binary);
  out.write("SNN1", 4);
  PutU64Le(out, 1);
  PutU64Le(out, 2);
  PutU64Le(out, 2);
  PutU64Le(out, 9999);  // no such activation
  const std::vector<float> params(6, 0.5f);  // 2x2 weights + 2 bias
  out.write(reinterpret_cast<const char*>(params.data()),
            static_cast<std::streamsize>(params.size() * sizeof(float)));
  out.close();
  EXPECT_TRUE(LoadMlp(path_).status().IsInvalidArgument());
}

TEST_F(SerializeTest, EveryTruncationPointIsRejectedCleanly) {
  Mlp net = TrainedLikeNet();
  ASSERT_TRUE(SaveMlp(net, path_).ok());
  std::ifstream in(path_, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  // A file cut at ANY byte offset must produce a clean error, never a
  // crash or a silently short model (ASan/UBSan guard the "never a crash").
  for (size_t cut = 0; cut < content.size(); cut += 97) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(content.data(), static_cast<std::streamsize>(cut));
    out.close();
    const Status status = LoadMlp(path_).status();
    EXPECT_FALSE(status.ok()) << "cut at byte " << cut;
  }
}

}  // namespace
}  // namespace sampnn
