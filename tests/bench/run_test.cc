// bench::Run's harness duties: the suite budget reaches every sweep as one
// deadline, so a spent budget runs no point of a later sweep.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <vector>

#include "registry.h"

namespace quicer {
namespace {

core::SweepSpec CountingSpec(std::atomic<int>& calls) {
  core::SweepSpec spec;
  spec.name = "budget_run_test";
  spec.axes.extras = {{"k", {{"a", 1}, {"b", 2}, {"c", 3}, {"d", 4}}}};
  spec.repetitions = 2;
  spec.metrics = {{"v", core::MetricMode::kSummary, /*exclude_negative=*/false, nullptr}};
  spec.runner = [&calls](const core::SweepRunContext&) {
    ++calls;
    return std::vector<double>{1.0};
  };
  return spec;
}

TEST(BenchRun, SpentSuiteBudgetRunsNoPoint) {
  std::atomic<int> calls{0};
  bench::BenchContext ctx;
  ctx.budget_seconds = 0.001;
  ctx.suite_start = std::chrono::steady_clock::now() - std::chrono::seconds(1);
  EXPECT_FALSE(bench::Run(CountingSpec(calls), ctx).has_value());  // partial run
  EXPECT_EQ(calls.load(), 0);
}

TEST(BenchRun, UnspentSuiteBudgetRunsEveryPoint) {
  std::atomic<int> calls{0};
  bench::BenchContext ctx;
  ctx.budget_seconds = 3600.0;
  const std::optional<core::SweepResult> result = bench::Run(CountingSpec(calls), ctx);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->executed_runs, 8u);
  EXPECT_EQ(calls.load(), 8);
}

}  // namespace
}  // namespace quicer
