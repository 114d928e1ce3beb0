// Telemetry across the distributed pipeline: sweeps record per-(bench,
// sweep) counters, partial-result files carry the telemetry block, the
// merge folds it (sums vs high-water maxima), and collect writes one
// fleet-wide report — while the data exports stay byte-identical to a run
// without any of it.
//
// Lives in its own binary: EnableProcess is sticky, so these tests must
// not share a process with tests asserting the disabled default.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/json.h"
#include "core/sweep.h"
#include "core/sweep_partial.h"
#include "dist/collect.h"
#include "dist/work_queue.h"
#include "dist/worker.h"
#include "obs/telemetry.h"

namespace quicer::dist {
namespace {

namespace fs = std::filesystem;

std::string Scratch(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / ("dist_telemetry_" + name);
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
/// the executed run count, however the grid was split across units.
core::SweepSpec CountingSpec() {
  core::SweepSpec spec;
  spec.name = "counting";
  spec.axes.extras = {{"k", {{"a", 0}, {"b", 1}, {"c", 2}, {"d", 3}}}};
  spec.repetitions = 6;
  spec.metrics = {{"v", core::MetricMode::kSummary, /*exclude_negative=*/false, nullptr}};
  spec.runner = [](const core::SweepRunContext& ctx) {
    quicer::obs::Count(quicer::obs::kEventsRun);
    quicer::obs::CountMax(quicer::obs::kArenaBytesHighWater,
                          static_cast<std::uint64_t>(ctx.repetition + 1));
    return std::vector<double>{static_cast<double>(ctx.point.Extra("k")->value) * 10.0 +
                               ctx.repetition};
  };
  return spec;
}

TEST(SweepTelemetry, RunSweepSnapshotsCountersPerSweep) {
  obs::EnableProcess();
  obs::SetCurrentBench("synthetic");
  const core::SweepResult result = core::RunSweep(CountingSpec());
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
  std::vector<core::SweepResult> partials;
  for (int half = 0; half < 2; ++half) {
    core::SweepSpec spec = CountingSpec();
    spec.shard.rep_begin = half == 0 ? 0 : 3;
    spec.shard.rep_end = half == 0 ? 3 : 0;
    partials.push_back(core::RunSweep(spec));
    ASSERT_TRUE(partials.back().telemetry.enabled);
  }

  // The telemetry block survives the partial-file round trip.
  for (core::SweepResult& partial : partials) {
    std::string error;
    std::optional<core::SweepResult> parsed =
        core::ParseSweepPartialJson(core::SweepPartialJson(partial), &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    ASSERT_TRUE(parsed->telemetry.enabled);
    EXPECT_EQ(parsed->telemetry.counters, partial.telemetry.counters);
    partial = std::move(*parsed);
  }

  std::string error;
  const std::optional<core::SweepResult> merged =
      core::MergeSweepResults(partials, &error);
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

TEST(SweepTelemetry, CollectFoldsWorkerTelemetryIntoOneReport) {
  obs::EnableProcess();
  const std::string root = Scratch("queue");
  const std::vector<SweepInventory> sweeps = {{"synthetic", "counting", 4, 6}};
  const std::vector<WorkUnit> units = PlanUnits(sweeps, 8);
  ASSERT_GT(units.size(), 1u);  // the grid really is split across units
  WorkQueue::Manifest manifest;
  manifest.unit_count = units.size();
  manifest.sweeps = sweeps;
  std::string error;
  ASSERT_TRUE(WorkQueue::Init(root, manifest, units, &error)) << error;
  std::optional<WorkQueue> queue = WorkQueue::Open(root, &error);
  ASSERT_TRUE(queue.has_value()) << error;

  UnitRunner runner = [](const WorkUnit& unit, const std::string& stage_dir) {
    core::SweepSpec spec = CountingSpec();
    spec.shard.points = unit.points;
    spec.shard.rep_begin = unit.rep_begin;
    spec.shard.rep_end = unit.rep_end;
    spec.only_sweep = unit.sweep;
    return core::WriteSweepData(core::RunSweep(spec), stage_dir) ? 0 : 1;
  };
  WorkerOptions options;
  options.worker_id = "w1";
  options.wait_for_stragglers = false;
  const WorkerStats stats = RunWorker(*queue, options, runner);
  ASSERT_EQ(stats.units_failed, 0u);

  const std::string out = Scratch("out");
  const std::string report_path = (fs::path(out) / "telemetry.json").string();
  CollectReport report;
  ASSERT_TRUE(Collect(*queue, out, &report, nullptr, report_path)) << report.error;

  const std::optional<core::JsonValue> doc =
      core::JsonValue::Parse(SlurpFile(report_path), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->GetString("format"), "quicer-telemetry-v1");
  const core::JsonValue* entries = doc->Get("sweeps");
  ASSERT_NE(entries, nullptr);
  ASSERT_EQ(entries->Items().size(), 1u);
  const core::JsonValue& entry = entries->Items()[0];
  EXPECT_EQ(entry.GetString("bench"), "synthetic");
  EXPECT_EQ(entry.GetString("sweep"), "counting");
  const core::JsonValue* counters = entry.Get("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(static_cast<std::uint64_t>(counters->GetNumber("sim.events_run")), 24u);

  // Telemetry never leaks into the data exports: the collected exports are
  // byte-identical to a plain single-process run's.
  const std::string ref = Scratch("ref");
  ASSERT_TRUE(core::WriteSweepData(core::RunSweep(CountingSpec()), ref));
  for (const char* file : {"counting_sweep.csv", "counting_sweep.json"}) {
    EXPECT_EQ(SlurpFile(out + "/" + file), SlurpFile(ref + "/" + file)) << file;
  }
}

}  // namespace
}  // namespace quicer::dist
