// The enumerate → execute → merge contract: any shard layout, recombined
// through the partial-result JSON round trip, reproduces the single-process
// exports byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/csv.h"
#include "core/json.h"
#include "core/loss_scenarios.h"
#include "core/sweep.h"
#include "core/sweep_partial.h"

namespace quicer::core {
namespace {

/// A representative experiment-driven spec: behavior x RTT grid, a loss
/// axis resolved against the point, one summary and one trace metric.
SweepSpec RepresentativeSpec() {
  SweepSpec spec;
  spec.name = "shard_test";
  spec.base.client = clients::ClientImpl::kQuicGo;
  spec.base.rtt = sim::Millis(9);
  spec.base.response_body_bytes = 4096;
  spec.axes.behaviors = {quic::ServerBehavior::kWaitForCertificate,
                         quic::ServerBehavior::kInstantAck};
  spec.axes.rtts = {sim::Millis(5), sim::Millis(20), sim::Millis(50)};
  spec.axes.losses = {{"second-client-flight", [](const ExperimentConfig& c) {
                         return SecondClientFlightLoss(c.client);
                       }}};
  spec.repetitions = 5;
  spec.metrics = {{"response_ttfb_ms", MetricMode::kSummary, /*exclude_negative=*/true,
                   [](const ExperimentResult& r) { return r.ResponseTtfbMs(); }},
                  {"end_time_ms", MetricMode::kTrace, /*exclude_negative=*/false,
                   [](const ExperimentResult& r) { return sim::ToMillis(r.end_time); }}};
  return spec;
}

std::string CsvText(const SweepResult& result) {
  const std::string path = testing::TempDir() + "/shard_test_csv.csv";
  {
    CsvWriter csv(testing::TempDir(), "shard_test_csv", SweepCsvHeader());
    EXPECT_TRUE(csv.active());
    WriteSweepCsv(result, csv);
  }
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::remove(path.c_str());
  return buffer.str();
}

/// Runs the spec sharded N ways, round-trips every partial through its JSON
/// document, merges, and returns the merged result.
SweepResult ShardRoundTripMerge(const SweepSpec& spec, std::size_t shards) {
  std::vector<SweepResult> partials;
  for (std::size_t i = 0; i < shards; ++i) {
    SweepSpec shard_spec = spec;
    shard_spec.shard.index = i;
    shard_spec.shard.count = shards;
    const SweepResult executed = RunSweep(shard_spec);
    EXPECT_EQ(executed.sharded(), shards > 1) << i;
    std::string error;
    std::optional<SweepResult> parsed = ParseSweepPartialJson(SweepPartialJson(executed), &error);
    EXPECT_TRUE(parsed.has_value()) << error;
    partials.push_back(std::move(*parsed));
  }
  std::string error;
  const std::optional<SweepResult> merged = MergeSweepResults(partials, &error);
  EXPECT_TRUE(merged.has_value()) << error;
  return *merged;
}

// The acceptance contract: shard counts 1, 2 and 7 all reproduce the
// single-process CSV and JSON exports byte-identically, through the partial
// JSON round trip.
TEST(SweepShard, MergedExportsByteIdenticalAcrossShardCounts) {
  const SweepSpec spec = RepresentativeSpec();
  const SweepResult single = RunSweep(spec);
  const auto all_executed = [](const SweepResult& result) {
    return std::all_of(result.points.begin(), result.points.end(),
                       [](const PointSummary& summary) { return summary.executed; });
  };
  EXPECT_TRUE(all_executed(single));
  const std::string single_json = SweepResultJson(single);
  const std::string single_csv = CsvText(single);

  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    const SweepResult merged = ShardRoundTripMerge(spec, shards);
    EXPECT_TRUE(all_executed(merged)) << shards;
    EXPECT_EQ(merged.total_runs, single.total_runs) << shards;
    EXPECT_EQ(merged.executed_runs, single.executed_runs) << shards;
    EXPECT_EQ(SweepResultJson(merged), single_json) << shards << " shards";
    EXPECT_EQ(CsvText(merged), single_csv) << shards << " shards";
  }
}

// Same contract when per-point accumulators have overflowed into histogram
// mode: the partial files carry the full histogram state verbatim.
TEST(SweepShard, MergedExportsByteIdenticalWithOverflowedAccumulators) {
  SweepSpec spec = RepresentativeSpec();
  spec.name = "shard_overflow_test";
  spec.repetitions = 10;
  spec.reservoir_capacity = 4;  // force overflow at every point
  const SweepResult single = RunSweep(spec);
  ASSERT_FALSE(single.points.front().primary().summary.exact());

  for (const std::size_t shards : {std::size_t{2}, std::size_t{7}}) {
    const SweepResult merged = ShardRoundTripMerge(spec, shards);
    EXPECT_EQ(SweepResultJson(merged), SweepResultJson(single)) << shards;
    EXPECT_EQ(CsvText(merged), CsvText(single)) << shards;
  }
}

TEST(SweepShard, ShardContainsPartitionsTheGrid) {
  SweepShard all;
  EXPECT_TRUE(all.all());
  EXPECT_TRUE(all.Contains(0));
  EXPECT_TRUE(all.Contains(41));

  SweepShard one_of_three{1, 3};
  EXPECT_FALSE(one_of_three.all());
  EXPECT_TRUE(one_of_three.Contains(1));
  EXPECT_TRUE(one_of_three.Contains(4));
  EXPECT_FALSE(one_of_three.Contains(3));
}

// A sharded execution runs exactly its points — others keep metadata but
// stay unexecuted with empty series — and sharded() reflects the subset.
TEST(SweepShard, ExecutesOnlySelectedPoints) {
  SweepSpec spec = RepresentativeSpec();
  spec.shard = {1, 3};  // ids 1 and 4 of the 6-point grid
  const SweepResult result = RunSweep(spec);
  EXPECT_TRUE(result.sharded());
  ASSERT_EQ(result.points.size(), 6u);
  for (const PointSummary& summary : result.points) {
    const bool selected = summary.point.index == 1 || summary.point.index == 4;
    EXPECT_EQ(summary.executed, selected) << summary.point.index;
    EXPECT_EQ(summary.primary().count() > 0, selected) << summary.point.index;
  }
  EXPECT_EQ(result.executed_runs, 2u * 5u);
}

// Executed shard points carry values identical to the same points of a full
// run: the seed schedule depends only on the repetition index.
TEST(SweepShard, ShardValuesMatchFullRunPointwise) {
  const SweepSpec spec = RepresentativeSpec();
  const SweepResult full = RunSweep(spec);
  SweepSpec shard_spec = spec;
  shard_spec.shard = {1, 2};
  const SweepResult part = RunSweep(shard_spec);
  for (std::size_t i = 0; i < full.points.size(); ++i) {
    if (!part.points[i].executed) continue;
    EXPECT_EQ(part.points[i].primary().summary.samples(),
              full.points[i].primary().summary.samples())
        << i;
    EXPECT_EQ(part.points[i].metrics[1].trace, full.points[i].metrics[1].trace) << i;
  }
}

// The partial JSON document round-trips every field the merge relies on.
TEST(SweepShard, PartialJsonRoundTripPreservesMetadata) {
  SweepSpec spec = RepresentativeSpec();
  spec.seed_base = 900;
  spec.seed_stride = 31;
  spec.shard = {0, 2};
  const SweepResult executed = RunSweep(spec);
  const std::string json = SweepPartialJson(executed);

  std::string error;
  const std::optional<SweepResult> parsed = ParseSweepPartialJson(json, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->name, executed.name);
  EXPECT_EQ(parsed->shard.index, 0u);
  EXPECT_EQ(parsed->shard.count, 2u);
  EXPECT_EQ(parsed->repetitions, executed.repetitions);
  EXPECT_EQ(parsed->reservoir_capacity, executed.reservoir_capacity);
  EXPECT_EQ(parsed->seed_base, 900u);
  EXPECT_EQ(parsed->seed_stride, 31u);
  ASSERT_EQ(parsed->points.size(), executed.points.size());
  for (std::size_t i = 0; i < parsed->points.size(); ++i) {
    EXPECT_EQ(parsed->points[i].executed, executed.points[i].executed) << i;
    EXPECT_EQ(parsed->points[i].point.Key(), executed.points[i].point.Key()) << i;
  }
}

TEST(SweepShard, MergeRejectsMismatchedPartials) {
  const SweepSpec spec = RepresentativeSpec();
  SweepSpec shard0 = spec;
  shard0.shard = {0, 2};
  const SweepResult partial0 = RunSweep(shard0);

  std::string error;
  EXPECT_FALSE(MergeSweepResults({}, &error).has_value());

  // Missing shard 1: its points executed nowhere.
  EXPECT_FALSE(MergeSweepResults({partial0}, &error).has_value());
  EXPECT_NE(error.find("executed in no partial"), std::string::npos);

  // A partial of a different spec (renamed) cannot merge in.
  SweepResult renamed = partial0;
  renamed.name = "other_sweep";
  EXPECT_FALSE(MergeSweepResults({partial0, renamed}, &error).has_value());
  EXPECT_NE(error.find("name mismatch"), std::string::npos);

  // A different grid is caught by the spec content-hash before anything
  // else gets compared.
  SweepSpec other_axes = spec;
  other_axes.axes.rtts = {sim::Millis(5), sim::Millis(21), sim::Millis(50)};
  other_axes.shard = {1, 2};
  const SweepResult wrong_grid = RunSweep(other_axes);
  EXPECT_FALSE(MergeSweepResults({partial0, wrong_grid}, &error).has_value());
  EXPECT_NE(error.find("content-hash mismatch"), std::string::npos);

  // Equal hashes over different grids (a collision) still trip the
  // point-key check.
  SweepResult collided = wrong_grid;
  collided.spec_hash = partial0.spec_hash;
  EXPECT_FALSE(MergeSweepResults({partial0, collided}, &error).has_value());
  EXPECT_NE(error.find("differs between partials"), std::string::npos);
}

// MergeSweepPartialFiles drives the whole cross-process flow: write shard
// files, merge them, and the emitted exports match the single-process pair.
TEST(SweepShard, MergePartialFilesWritesByteIdenticalExports) {
  const SweepSpec spec = RepresentativeSpec();
  const std::string dir = testing::TempDir();
  const SweepResult single = RunSweep(spec);
  ASSERT_TRUE(WriteSweepData(single, dir));

  std::vector<std::string> files;
  for (std::size_t i = 0; i < 2; ++i) {
    SweepSpec shard_spec = spec;
    shard_spec.name = "shard_file_test";
    shard_spec.shard = {i, 2};
    const SweepResult executed = RunSweep(shard_spec);
    ASSERT_TRUE(WriteSweepData(executed, dir));
    files.push_back(dir + "/" + SweepPartialFileName(executed));
  }
  ASSERT_TRUE(MergeSweepPartialFiles(files, dir, nullptr));

  auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    EXPECT_TRUE(in.is_open()) << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  };
  // Same bytes modulo the sweep name (embedded in the JSON header and CSV
  // rows), which differs to keep the two export sets apart on disk.
  std::string merged_json = slurp(dir + "/shard_file_test_sweep.json");
  std::string single_json = slurp(dir + "/" + spec.name + "_sweep.json");
  ASSERT_NE(merged_json.find("shard_file_test"), std::string::npos);
  std::size_t at;
  while ((at = merged_json.find("shard_file_test")) != std::string::npos) {
    merged_json.replace(at, std::strlen("shard_file_test"), spec.name);
  }
  EXPECT_EQ(merged_json, single_json);
}

// A file merge checks every sweep before it writes any: when one sweep of
// two is given a shard twice, the other sweep, which would merge, is not
// written either, and a missing output directory is not created.
TEST(SweepShard, FailedFileMergeWritesNothing) {
  const std::string dir = testing::TempDir() + "/failed_merge";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir + "/in");
  std::vector<std::string> files;
  for (const char* name : {"merge_whole", "merge_twice"}) {
    for (std::size_t i = 0; i < 2; ++i) {
      SweepSpec spec = RepresentativeSpec();
      spec.name = name;
      spec.shard = {i, 2};
      const SweepResult executed = RunSweep(spec);
      ASSERT_TRUE(WriteSweepData(executed, dir + "/in"));
      files.push_back(dir + "/in/" + SweepPartialFileName(executed));
    }
  }
  files.push_back(files.back());  // merge_twice's shard 1 again

  std::filesystem::create_directories(dir + "/out");
  std::FILE* log = std::tmpfile();
  ASSERT_NE(log, nullptr);
  std::vector<SweepResult> merged;
  EXPECT_FALSE(MergeSweepPartialFiles(files, dir + "/out", log, &merged));
  std::rewind(log);
  std::string text(4096, '\0');
  text.resize(std::fread(text.data(), 1, text.size(), log));
  std::fclose(log);
  EXPECT_NE(text.find("sweep 'merge_twice': point 1 repetitions [0, 5) are covered twice"),
            std::string::npos)
      << text;
  EXPECT_TRUE(std::filesystem::is_empty(dir + "/out"));
  EXPECT_TRUE(merged.empty());
  std::filesystem::remove(dir + "/out");
  EXPECT_FALSE(MergeSweepPartialFiles(files, dir + "/out", nullptr));
  EXPECT_FALSE(std::filesystem::exists(dir + "/out"));

  // Without the duplicate both sweeps merge and write.
  files.pop_back();
  EXPECT_TRUE(MergeSweepPartialFiles(files, dir + "/out", nullptr, &merged));
  EXPECT_EQ(merged.size(), 2u);
  EXPECT_TRUE(std::filesystem::exists(dir + "/out/merge_whole_sweep.csv"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/out/merge_twice_sweep.json"));
}

// The JSON parser handles the document shapes the partial files use.
TEST(SweepShard, JsonParserRoundTrips) {
  const std::string doc =
      "{\"a\": [1, 2.5, -3e2, null], \"b\": {\"nested\": \"x\\\"y\"}, "
      "\"t\": true, \"f\": false}";
  std::string error;
  const std::optional<JsonValue> parsed = JsonValue::Parse(doc, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_NE(parsed->Get("a"), nullptr);
  EXPECT_EQ(parsed->Get("a")->Items().size(), 4u);
  EXPECT_EQ(parsed->Get("a")->Items()[2].AsNumber(), -300.0);
  EXPECT_TRUE(parsed->Get("a")->Items()[3].is_null());
  EXPECT_EQ(parsed->Get("b")->GetString("nested"), "x\"y");
  EXPECT_TRUE(parsed->GetBool("t"));
  EXPECT_FALSE(parsed->GetBool("f", true));

  EXPECT_FALSE(JsonValue::Parse("{\"unterminated\": ", &error).has_value());
  EXPECT_FALSE(JsonValue::Parse("[1] trailing", &error).has_value());
  EXPECT_FALSE(JsonValue::Parse("not json", &error).has_value());

  // %.17g numbers round-trip exactly through the parser (byte-identity
  // depends on it).
  const double value = 123.456789012345678;
  const std::optional<JsonValue> num = JsonValue::Parse(JsonNumber(value));
  ASSERT_TRUE(num.has_value());
  EXPECT_EQ(num->AsNumber(), value);
}

}  // namespace
}  // namespace quicer::core
