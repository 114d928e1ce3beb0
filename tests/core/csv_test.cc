#include "core/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace quicer::core {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(Csv, EscapePlainFieldUnchanged) {
  EXPECT_EQ(CsvWriter::Escape("hello"), "hello");
  EXPECT_EQ(CsvWriter::Escape("9.5"), "9.5");
}

TEST(Csv, EscapeQuotesAndSeparators) {
  EXPECT_EQ(CsvWriter::Escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::Escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvWriter::Escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, CountsRowsAndReportsActive) {
  const std::string dir = ::testing::TempDir();
  const std::string path = dir + "/quicer_csv_test.csv";
  {
    CsvWriter writer(dir, "quicer_csv_test", {"rtt_ms", "ttfb_ms"});
    ASSERT_TRUE(writer.active());
    writer.Row({9.0, 26.4});
    writer.Row({20.0, 48.25});
    writer.TextRow({"note", "tail row"});
    EXPECT_EQ(writer.rows(), 3u);
  }
  const std::string content = ReadFile(path);
  EXPECT_NE(content.find("rtt_ms,ttfb_ms"), std::string::npos);
  EXPECT_NE(content.find("9,26.4"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Csv, FullRoundTripAfterClose) {
  const std::string dir = ::testing::TempDir();
  const std::string path = dir + "/quicer_csv_roundtrip.csv";
  {
    CsvWriter writer(dir, "quicer_csv_roundtrip", {"a", "b,c"});
    writer.Row({1.5, 2.0});
    writer.TextRow({"x\"y", "z"});
  }
  const std::string content = ReadFile(path);
  EXPECT_EQ(content, "a,\"b,c\"\n1.5,2\n\"x\"\"y\",z\n");
  std::remove(path.c_str());
}

TEST(Csv, UnwritableDirectoryIsSilentlyInactive) {
  CsvWriter writer("/nonexistent/dir/zzz", "x", {"a"});
  EXPECT_FALSE(writer.active());
  writer.Row({1.0});  // must not crash
  EXPECT_EQ(writer.rows(), 0u);
}

TEST(Csv, EmptyDirectoryMeansDetached) {
  CsvWriter writer("", "x", {"a"});
  EXPECT_FALSE(writer.active());
}

}  // namespace
}  // namespace quicer::core
