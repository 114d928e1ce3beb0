// Telemetry through the sweep pipeline: sweeps record per-(bench, sweep)
// counters, partial-result files carry the telemetry block, and the merge
// folds it (sums vs high-water maxima) into one report whose deterministic
// counters equal an unsplit run's — while the data exports stay
// byte-identical to a run without any of it.
//
// Lives in its own binary: EnableProcess is sticky, so these tests must
// not share a process with tests asserting the disabled default.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/sweep.h"
#include "core/sweep_partial.h"
#include "obs/telemetry.h"

namespace quicer::core {
namespace {

namespace fs = std::filesystem;

std::string Scratch(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / ("sweep_telemetry_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string SlurpFile(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// A synthetic sweep whose runner bumps a counter once per repetition, so
/// the telemetry fold is checkable exactly: the merged count must equal
/// the executed run count, however the grid was split.
SweepSpec CountingSpec() {
  SweepSpec spec;
  spec.name = "counting";
  spec.axes.extras = {{"k", {{"a", 0}, {"b", 1}, {"c", 2}, {"d", 3}}}};
  spec.repetitions = 6;
  spec.metrics = {{"v", MetricMode::kSummary, /*exclude_negative=*/false, nullptr}};
  spec.runner = [](const SweepRunContext& ctx) {
    obs::Count(obs::kEventsRun);
    obs::CountMax(obs::kArenaBytesHighWater, static_cast<std::uint64_t>(ctx.repetition + 1));
    return std::vector<double>{static_cast<double>(ctx.point.Extra("k")->value) * 10.0 +
                               ctx.repetition};
  };
  return spec;
}

TEST(SweepTelemetry, RunSweepSnapshotsCountersPerSweep) {
  obs::EnableProcess();
  obs::SetCurrentBench("synthetic");
  const SweepResult result = RunSweep(CountingSpec());
  obs::SetCurrentBench("");

  ASSERT_TRUE(result.telemetry.enabled);
  EXPECT_GT(result.telemetry.wall_seconds, 0.0);
  std::uint64_t runs = 0;
  std::uint64_t highwater = 0;
  for (const auto& [name, value] : result.telemetry.counters) {
    if (name == "sim.events_run") runs = value;
    if (name == "quic.arena.bytes_highwater") highwater = value;
  }
  EXPECT_EQ(runs, 24u);       // 4 points x 6 repetitions
  EXPECT_EQ(highwater, 6u);   // max repetition index + 1, not a sum

  // The engine appended a (bench, sweep) record for the report.
  bool recorded = false;
  for (const obs::SweepRecord& record : obs::TakeSweepRecords()) {
    if (record.sweep != "counting") continue;
    recorded = true;
    EXPECT_EQ(record.bench, "synthetic");
    EXPECT_EQ(record.executed_runs, 24u);
    EXPECT_EQ(obs::RecordCounter(record, "sim.events_run"), 24u);
  }
  EXPECT_TRUE(recorded);
}

TEST(SweepTelemetry, PartialDocumentsCarryAndMergeTheTelemetryBlock) {
  obs::EnableProcess();
  // Two repetition-window halves of the same grid.
  std::vector<SweepResult> partials;
  for (int half = 0; half < 2; ++half) {
    SweepSpec spec = CountingSpec();
    spec.shard.rep_begin = half == 0 ? 0 : 3;
    spec.shard.rep_end = half == 0 ? 3 : 0;
    partials.push_back(RunSweep(spec));
    ASSERT_TRUE(partials.back().telemetry.enabled);
  }

  // The telemetry block survives the partial-file round trip.
  for (SweepResult& partial : partials) {
    std::string error;
    std::optional<SweepResult> parsed = ParseSweepPartialJson(SweepPartialJson(partial), &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    ASSERT_TRUE(parsed->telemetry.enabled);
    EXPECT_EQ(parsed->telemetry.counters, partial.telemetry.counters);
    partial = std::move(*parsed);
  }

  std::string error;
  const std::optional<SweepResult> merged = MergeSweepResults(partials, &error);
  ASSERT_TRUE(merged.has_value()) << error;
  ASSERT_TRUE(merged->telemetry.enabled);
  std::uint64_t runs = 0;
  std::uint64_t highwater = 0;
  for (const auto& [name, value] : merged->telemetry.counters) {
    if (name == "sim.events_run") runs = value;
    if (name == "quic.arena.bytes_highwater") highwater = value;
  }
  EXPECT_EQ(runs, 24u);      // 12 + 12: sums add across partials
  EXPECT_EQ(highwater, 6u);  // max(3, 6): high-water marks take the max
  EXPECT_GT(merged->telemetry.wall_seconds, 0.0);
}

// The `bench_suite merge --telemetry` path: partial files split by points
// and by repetitions merge into one report whose deterministic counters
// equal the unsplit run's, and whose data exports match a run without
// telemetry byte for byte.
TEST(SweepTelemetry, FileMergeFoldsPartialTelemetryIntoOneReport) {
  obs::EnableProcess();
  const SweepResult unsplit = RunSweep(CountingSpec());
  const obs::SweepRecord unsplit_record = TelemetryRecordOf(unsplit, "");

  const std::string parts = Scratch("parts");
  std::vector<std::string> files;
  for (std::size_t shard = 0; shard < 2; ++shard) {
    for (const auto& [begin, end] : {std::pair<std::size_t, std::size_t>{0, 4}, {4, 0}}) {
      SweepSpec spec = CountingSpec();
      spec.shard = {shard, 2, {}, begin, end};
      const SweepResult partial = RunSweep(spec);
      ASSERT_TRUE(WriteSweepData(partial, parts));
      files.push_back(parts + "/" + SweepPartialFileName(partial));
    }
  }

  const std::string out = Scratch("out");
  std::vector<SweepResult> merged;
  ASSERT_TRUE(MergeSweepPartialFiles(files, out, nullptr, &merged));
  ASSERT_EQ(merged.size(), 1u);
  ASSERT_TRUE(merged[0].telemetry.enabled);
  const obs::SweepRecord record = TelemetryRecordOf(merged[0], "");
  EXPECT_EQ(record.sweep, "counting");
  EXPECT_EQ(record.executed_runs, unsplit_record.executed_runs);
  for (const char* counter : {"sim.events_run", "quic.arena.bytes_highwater"}) {
    EXPECT_EQ(obs::RecordCounter(record, counter), obs::RecordCounter(unsplit_record, counter))
        << counter;
  }
  EXPECT_EQ(obs::RecordCounter(record, "sim.events_run"), 24u);

  // Telemetry never leaks into the data exports: the merged exports are
  // byte-identical to a plain single-process run's.
  const std::string ref = Scratch("ref");
  ASSERT_TRUE(WriteSweepData(unsplit, ref));
  for (const char* file : {"counting_sweep.csv", "counting_sweep.json"}) {
    EXPECT_EQ(SlurpFile(out + "/" + file), SlurpFile(ref + "/" + file)) << file;
  }
}

}  // namespace
}  // namespace quicer::core
