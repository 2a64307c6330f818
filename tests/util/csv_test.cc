#include "src/util/csv.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

namespace sampnn {
namespace {

std::string ReadAll(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

class CsvTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  // One file per test: ctest runs the tests of a suite as parallel
  // processes, which must not share it.
  std::string path_ =
      ::testing::TempDir() + "/sampnn_csv_test_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".csv";
};

TEST_F(CsvTest, WritesHeaderAndRows) {
  auto writer = CsvWriter::Open(path_);
  ASSERT_TRUE(writer.ok());
  writer->WriteHeader({"a", "b"});
  writer->WriteRow({"1", "2"});
  writer->WriteRow({"3", "4"});
  ASSERT_TRUE(writer->Close().ok());
  EXPECT_EQ(ReadAll(path_), "a,b\n1,2\n3,4\n");
}

TEST_F(CsvTest, EscapesSpecialCharacters) {
  auto writer = CsvWriter::Open(path_);
  ASSERT_TRUE(writer.ok());
  writer->WriteRow({"has,comma", "has\"quote", "has\nnewline", "plain"});
  ASSERT_TRUE(writer->Close().ok());
  EXPECT_EQ(ReadAll(path_),
            "\"has,comma\",\"has\"\"quote\",\"has\nnewline\",plain\n");
}

TEST(CsvEscapeTest, PassesThroughPlainCells) {
  EXPECT_EQ(CsvWriter::Escape("hello"), "hello");
  EXPECT_EQ(CsvWriter::Escape(""), "");
}

TEST(CsvEscapeTest, QuotesWhenNeeded) {
  EXPECT_EQ(CsvWriter::Escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::Escape("a\"b"), "\"a\"\"b\"");
  EXPECT_EQ(CsvWriter::Escape("a\rb"), "\"a\rb\"");
}

TEST(CsvNumTest, FormatsWithPrecision) {
  EXPECT_EQ(CsvWriter::Num(1.23456), "1.2346");
  EXPECT_EQ(CsvWriter::Num(1.5, 1), "1.5");
  EXPECT_EQ(CsvWriter::Num(2.0, 0), "2");
}

TEST(CsvOpenTest, FailsOnUnwritablePath) {
  auto writer = CsvWriter::Open("/nonexistent-dir-xyz/out.csv");
  EXPECT_FALSE(writer.ok());
  EXPECT_TRUE(writer.status().IsIOError());
}

}  // namespace
}  // namespace sampnn
