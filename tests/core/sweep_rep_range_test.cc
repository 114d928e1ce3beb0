// Repetition-range sharding: a window [a, b) of a point's repetitions runs
// with the absolute-repetition seed schedule, so the windows of a split
// point merge back bit-identically to an unsplit run while no later window
// overflows its reservoir — the property `bench_suite --rep-range` + `merge`
// relies on. The merge counts every (point, repetition) exactly once:
// overlapping windows fail, and a gap fails the file merge that writes final
// exports.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/csv.h"
#include "core/sweep.h"
#include "core/sweep_partial.h"
#include "sim/rng.h"
#include "stats/accumulator.h"

namespace quicer::core {
namespace {

/// Synthetic two-metric spec whose values encode (point, repetition, seed),
/// with aborted and no-sample repetitions sprinkled in.
SweepSpec WindowSpec() {
  SweepSpec spec;
  spec.name = "rep_window_test";
  spec.axes.extras = {{"k", {{"a", 1}, {"b", 2}, {"c", 3}}}};
  spec.repetitions = 9;
  spec.seed_base = 100;
  spec.seed_stride = 7;
  spec.metrics = {{"m_sum", MetricMode::kSummary, /*exclude_negative=*/true, nullptr},
                  {"m_trace", MetricMode::kTrace, /*exclude_negative=*/false, nullptr}};
  spec.runner = [](const SweepRunContext& ctx) {
    const double k = static_cast<double>(ctx.point.Extra("k")->value);
    const double sum = ctx.repetition == 4 ? -1.0 : k * 1000.0 + static_cast<double>(ctx.seed);
    const double trace = ctx.repetition == 7 ? NoSample() : k + ctx.repetition * 0.25;
    return std::vector<double>{sum, trace};
  };
  return spec;
}

/// Runs `spec` over repetitions [begin, end) and round-trips the result
/// through its partial document, as a separate process would hand it over.
SweepResult WindowPartial(SweepSpec spec, std::size_t begin, std::size_t end) {
  spec.shard.rep_begin = begin;
  spec.shard.rep_end = end;
  std::string error;
  std::optional<SweepResult> parsed =
      ParseSweepPartialJson(SweepPartialJson(RunSweep(spec)), &error);
  EXPECT_TRUE(parsed.has_value()) << error;
  return parsed ? std::move(*parsed) : SweepResult{};
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(RepWindow, ResolvesAndClamps) {
  SweepShard shard;
  EXPECT_EQ(shard.RepWindow(9), (std::pair<std::size_t, std::size_t>{0, 9}));
  EXPECT_TRUE(shard.all());

  shard.rep_begin = 3;
  shard.rep_end = 6;
  EXPECT_FALSE(shard.all());
  EXPECT_EQ(shard.RepWindow(9), (std::pair<std::size_t, std::size_t>{3, 6}));
  EXPECT_EQ(shard.RepWindow(5), (std::pair<std::size_t, std::size_t>{3, 5}));
  EXPECT_EQ(shard.RepWindow(2), (std::pair<std::size_t, std::size_t>{2, 2}));  // empty

  shard.rep_end = 0;  // "to the end"
  EXPECT_EQ(shard.RepWindow(9), (std::pair<std::size_t, std::size_t>{3, 9}));
}

TEST(RepWindow, WindowExecutesOnlyItsRepetitions) {
  SweepSpec spec = WindowSpec();
  spec.shard.rep_begin = 2;
  spec.shard.rep_end = 5;
  const SweepResult result = RunSweep(spec);
  EXPECT_TRUE(result.sharded());
  EXPECT_EQ(result.executed_runs, 3u * 3u);
  for (const PointSummary& summary : result.points) {
    EXPECT_TRUE(summary.executed);
    // Repetition 4 aborts under exclude_negative: 2 retained of [2,5).
    EXPECT_EQ(summary.metrics[0].summary.count(), 2u);
    EXPECT_EQ(summary.metrics[0].aborted, 1u);
    EXPECT_EQ(summary.metrics[1].trace.size(), 3u);
  }

  // The windowed values equal the same absolute repetitions of a full run.
  const SweepResult full = RunSweep(WindowSpec());
  for (std::size_t i = 0; i < full.points.size(); ++i) {
    const std::vector<double>& full_trace = full.points[i].metrics[1].trace;
    // Repetition 7's NaN falls outside the window, so indices align 1:1.
    const std::vector<double> expected(full_trace.begin() + 2, full_trace.begin() + 5);
    EXPECT_EQ(result.points[i].metrics[1].trace, expected) << i;
  }
}

TEST(RepWindow, EmptyWindowExecutesNothing) {
  SweepSpec spec = WindowSpec();
  spec.shard.rep_begin = 9;  // at/after the last repetition
  const SweepResult result = RunSweep(spec);
  EXPECT_EQ(result.executed_runs, 0u);
  for (const PointSummary& summary : result.points) {
    EXPECT_FALSE(summary.executed);
  }
}

// The acceptance contract: splitting every point's repetitions into
// windows — across different window layouts — merges back byte-identically,
// through the partial-result JSON round trip.
TEST(RepWindow, WindowsMergeByteIdenticallyToUnsplitRun) {
  const SweepResult full = RunSweep(WindowSpec());
  const std::string full_json = SweepResultJson(full);

  const std::vector<std::vector<std::pair<std::size_t, std::size_t>>> layouts = {
      {{0, 3}, {3, 6}, {6, 0}},  // three even windows ("6:0" = to the end)
      {{0, 1}, {1, 8}, {8, 9}},  // lopsided
      {{0, 5}, {5, 9}},          // two windows
  };
  for (std::size_t l = 0; l < layouts.size(); ++l) {
    std::vector<SweepResult> partials;
    for (const auto& [begin, end] : layouts[l]) {
      SweepSpec spec = WindowSpec();
      spec.shard.rep_begin = begin;
      spec.shard.rep_end = end;
      std::string error;
      std::optional<SweepResult> parsed =
          ParseSweepPartialJson(SweepPartialJson(RunSweep(spec)), &error);
      ASSERT_TRUE(parsed.has_value()) << error;
      EXPECT_EQ(parsed->shard.rep_begin, begin);
      EXPECT_EQ(parsed->shard.rep_end, end);
      partials.push_back(std::move(*parsed));
    }
    std::string error;
    const std::optional<SweepResult> merged = MergeSweepResults(partials, &error);
    ASSERT_TRUE(merged.has_value()) << error;
    EXPECT_EQ(SweepResultJson(*merged), full_json) << "layout " << l;
  }
}

// MergeSweepResults orders partials by repetition window itself, so the
// glob order of partial files (lexicographic: reps10to12 before reps2to4)
// cannot scramble a split point's trace concatenation.
TEST(RepWindow, MergeIsIndependentOfPartialOrder) {
  SweepSpec base = WindowSpec();
  base.repetitions = 12;
  const SweepResult full = RunSweep(base);

  std::vector<SweepResult> partials;
  // Lexicographic file order of windows [0,2) [2,4) ... [10,12):
  // reps0to2, reps10to12, reps2to4, reps4to6, reps6to8, reps8to10.
  for (const std::size_t begin : {0u, 10u, 2u, 4u, 6u, 8u}) {
    SweepSpec spec = base;
    spec.shard.rep_begin = begin;
    spec.shard.rep_end = begin + 2;
    std::string error;
    std::optional<SweepResult> parsed =
        ParseSweepPartialJson(SweepPartialJson(RunSweep(spec)), &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    partials.push_back(std::move(*parsed));
  }
  std::string error;
  const std::optional<SweepResult> merged = MergeSweepResults(partials, &error);
  ASSERT_TRUE(merged.has_value()) << error;
  EXPECT_EQ(SweepResultJson(*merged), SweepResultJson(full));
}

// Windows compose with point selection: --shard with --rep-range executes
// exactly that slice.
TEST(RepWindow, ComposesWithPointSelection) {
  SweepSpec spec = WindowSpec();
  spec.shard = {1, 2};  // point 1 of the 3-point grid
  spec.shard.rep_begin = 0;
  spec.shard.rep_end = 4;
  const SweepResult result = RunSweep(spec);
  std::size_t executed = 0;
  for (const PointSummary& summary : result.points) {
    if (summary.executed) {
      ++executed;
      EXPECT_EQ(summary.point.index, 1u);
      EXPECT_EQ(summary.metrics[1].trace.size(), 4u);
    }
  }
  EXPECT_EQ(executed, 1u);
  EXPECT_EQ(result.executed_runs, 4u);
}

TEST(RepWindow, OverlappingWindowsAreRejected) {
  const std::vector<SweepResult> partials = {WindowPartial(WindowSpec(), 0, 5),
                                             WindowPartial(WindowSpec(), 3, 0)};
  std::string error;
  EXPECT_FALSE(MergeSweepResults(partials, &error).has_value());
  EXPECT_NE(error.find("sweep 'rep_window_test': point 0 repetitions [3, 5) are covered twice"),
            std::string::npos)
      << error;
}

TEST(RepWindow, DuplicatedWholePointPartialIsRejected) {
  SweepSpec spec = WindowSpec();
  spec.shard = {0, 2};
  const SweepResult shard0 = RunSweep(spec);
  std::string error;
  EXPECT_FALSE(MergeSweepResults({shard0, shard0}, &error).has_value());
  EXPECT_NE(error.find("point 0 repetitions [0, 9) are covered twice"), std::string::npos)
      << error;
}

// A gap is no error for MergeSweepResults (a sub-range of the repetitions
// merges; executed_runs counts what the windows cover), but the file merge
// that writes final exports refuses it.
TEST(RepWindow, GapMergesInMemoryButFailsTheFileMerge) {
  const std::vector<SweepResult> partials = {WindowPartial(WindowSpec(), 0, 3),
                                             WindowPartial(WindowSpec(), 5, 0)};
  std::string error;
  const std::optional<SweepResult> merged = MergeSweepResults(partials, &error);
  ASSERT_TRUE(merged.has_value()) << error;
  EXPECT_EQ(merged->executed_runs, 3u * 7u);
  EXPECT_EQ(merged->total_runs, 3u * 9u);

  const std::string dir = testing::TempDir() + "/rep_window_gap";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::vector<std::string> files;
  for (const SweepResult& partial : partials) {
    ASSERT_TRUE(WriteSweepData(partial, dir));
    files.push_back(dir + "/" + SweepPartialFileName(partial));
  }
  std::FILE* log = std::tmpfile();
  ASSERT_NE(log, nullptr);
  EXPECT_FALSE(MergeSweepPartialFiles(files, dir + "/out", log));
  std::rewind(log);
  std::string text(4096, '\0');
  text.resize(std::fread(text.data(), 1, text.size(), log));
  std::fclose(log);
  EXPECT_NE(text.find("sweep 'rep_window_test': point 0 repetitions [3, 5) are covered by no"
                      " partial"),
            std::string::npos)
      << text;
  EXPECT_FALSE(std::filesystem::exists(dir + "/out"));
}

// Two disjoint halves of a window that does not start at repetition 0 (the
// shape perfbench's tranco_scan merges every round) merge to the CSV bytes
// and executed_runs of one unsharded run of that window.
TEST(RepWindow, HalvesOfASubRangeMergeLikeTheWholeSubRange) {
  SweepSpec base = WindowSpec();
  base.repetitions = 12;
  std::string error;
  const std::optional<SweepResult> merged =
      MergeSweepResults({WindowPartial(base, 4, 6), WindowPartial(base, 6, 8)}, &error);
  ASSERT_TRUE(merged.has_value()) << error;
  SweepSpec whole_spec = base;
  whole_spec.shard.rep_begin = 4;
  whole_spec.shard.rep_end = 8;
  const SweepResult whole = RunSweep(whole_spec);
  EXPECT_EQ(merged->executed_runs, whole.executed_runs);
  EXPECT_EQ(merged->executed_runs, 3u * 4u);

  const auto csv = [](const SweepResult& result, const std::string& name) {
    {
      CsvWriter writer(testing::TempDir(), name, SweepCsvHeader());
      EXPECT_TRUE(writer.active());
      WriteSweepCsv(result, writer);
    }
    return Slurp(testing::TempDir() + "/" + name + ".csv");
  };
  EXPECT_EQ(csv(*merged, "sub_range_merged"), csv(whole, "sub_range_whole"));
}

// Windows of a point whose accumulator overflows its reservoir merge by
// stats::Accumulator::Merge's rule. A later window that still fits its
// reservoir is replayed sample by sample, so 0:15 + 15: (the first window
// overflows, the second holds 5 of 8) is bit-identical to the unsplit run.
// A later window that overflowed hands over moments and a histogram only:
// 0:5 + 5: keeps count, min and max exact, the mean to rounding and the
// median to one histogram bin.
TEST(RepWindow, OverflowingLaterWindowMergesWithinAccumulatorBounds) {
  SweepSpec base;
  base.name = "rep_window_overflow_test";
  base.axes.extras = {{"k", {{"a", 1}, {"b", 2}}}};
  base.repetitions = 20;
  base.reservoir_capacity = 8;
  base.seed_base = 100;
  base.seed_stride = 7;
  base.metrics = {{"m", MetricMode::kSummary, /*exclude_negative=*/false, nullptr}};
  base.runner = [](const SweepRunContext& ctx) {
    const double k = static_cast<double>(ctx.point.Extra("k")->value);
    return std::vector<double>{k + sim::Rng(ctx.seed).NextDouble()};
  };
  const SweepResult full = RunSweep(base);
  const std::string full_json = SweepResultJson(full);

  const auto merge = [&](std::size_t split) {
    std::string error;
    std::optional<SweepResult> merged =
        MergeSweepResults({WindowPartial(base, 0, split), WindowPartial(base, split, 0)}, &error);
    EXPECT_TRUE(merged.has_value()) << error;
    return merged ? std::move(*merged) : SweepResult{};
  };

  EXPECT_EQ(SweepResultJson(merge(15)), full_json);

  const SweepResult merged = merge(5);
  ASSERT_EQ(merged.points.size(), full.points.size());
  for (std::size_t i = 0; i < full.points.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "point " << i);
    const stats::Accumulator& want = full.points[i].metrics[0].summary;
    const stats::Accumulator& got = merged.points[i].metrics[0].summary;
    ASSERT_FALSE(want.exact());
    EXPECT_EQ(got.count(), want.count());
    EXPECT_EQ(got.min(), want.min());
    EXPECT_EQ(got.max(), want.max());
    EXPECT_NEAR(got.mean(), want.mean(), 1e-12 * std::abs(want.mean()));
    const double bin_width =
        (want.max() - want.min()) / static_cast<double>(stats::Accumulator::kHistogramBins);
    EXPECT_NEAR(got.Median(), want.Median(), bin_width);
  }
}

TEST(RepWindow, PartialFileNamesCarryTheWindow) {
  SweepResult result;
  result.name = "x";
  result.shard.rep_begin = 0;
  result.shard.rep_end = 10;
  EXPECT_EQ(SweepPartialFileName(result), "x_sweep.reps0to10.json");

  result.shard.rep_begin = 10;
  result.shard.rep_end = 0;
  EXPECT_EQ(SweepPartialFileName(result), "x_sweep.reps10toend.json");

  result.shard.index = 1;
  result.shard.count = 4;
  EXPECT_EQ(SweepPartialFileName(result), "x_sweep.shard1of4.reps10toend.json");

  result.shard.rep_begin = 0;
  result.shard.rep_end = 0;
  EXPECT_EQ(SweepPartialFileName(result), "x_sweep.shard1of4.json");
}

}  // namespace
}  // namespace quicer::core
