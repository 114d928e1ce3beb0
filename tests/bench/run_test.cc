// bench::Run's harness duties outside the enumerate pass: a full run
// returns its result for the bench's analysis and writes the final export
// pair; a shard returns nothing and writes only its partial-result file.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "registry.h"

namespace quicer {
namespace {

core::SweepSpec CountingSpec(std::atomic<int>& calls) {
  core::SweepSpec spec;
  spec.name = "bench_run_test";
  spec.axes.extras = {{"k", {{"a", 1}, {"b", 2}, {"c", 3}, {"d", 4}}}};
  spec.repetitions = 2;
  spec.metrics = {{"v", core::MetricMode::kSummary, /*exclude_negative=*/false, nullptr}};
  spec.runner = [&calls](const core::SweepRunContext&) {
    ++calls;
    return std::vector<double>{1.0};
  };
  return spec;
}

/// A fresh, empty export directory for one test.
std::string DataDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(BenchRun, FullRunReturnsItsResultAndWritesTheExportPair) {
  std::atomic<int> calls{0};
  bench::BenchContext ctx;
  ctx.data_dir = DataDir("bench_run_full");
  const std::optional<core::SweepResult> result = bench::Run(CountingSpec(calls), ctx);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->executed_runs, 8u);
  EXPECT_EQ(calls.load(), 8);
  EXPECT_TRUE(std::filesystem::exists(ctx.data_dir + "/bench_run_test_sweep.csv"));
  EXPECT_TRUE(std::filesystem::exists(ctx.data_dir + "/bench_run_test_sweep.json"));
}

TEST(BenchRun, ShardReturnsNothingAndWritesOnlyItsPartialFile) {
  std::atomic<int> calls{0};
  bench::BenchContext ctx;
  ctx.data_dir = DataDir("bench_run_shard");
  ctx.shard = {1, 2};
  EXPECT_FALSE(bench::Run(CountingSpec(calls), ctx).has_value());
  EXPECT_EQ(calls.load(), 4);  // points 1 and 3, two repetitions each
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(ctx.data_dir)) {
    files.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(files, std::vector<std::string>{"bench_run_test_sweep.shard1of2.json"});
}

}  // namespace
}  // namespace quicer
