// The links axis through the whole sweep machinery: enumeration and point
// ids, bit-identical execution at any parallelism, shard + merge byte
// identity, the CSV/JSON export labels, and the scenario-file round trip
// with its content-hash guard. Includes the jitter-reordering contract:
// deliveries under jitter larger than the inter-datagram spacing stay
// deterministic across thread counts and shard layouts.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/csv.h"
#include "core/scenario.h"
#include "core/sweep.h"
#include "core/sweep_partial.h"
#include "netem/model.h"

namespace quicer::core {
namespace {

netem::LinkModel GilbertBoth(double p, double r) {
  netem::LinkModel model;
  for (int dir : {netem::kUp, netem::kDown}) {
    model.loss[dir].kind = netem::LossModel::Kind::kGilbertElliott;
    model.loss[dir].p = p;
    model.loss[dir].r = r;
  }
  return model;
}

netem::LinkModel ShallowDownQueue(std::size_t depth_pkts) {
  netem::LinkModel model;
  model.queue[netem::kDown].kind = netem::QueueModel::Kind::kFifo;
  model.queue[netem::kDown].depth_pkts = depth_pkts;
  return model;
}

netem::LinkModel AsymmetricPath() {
  netem::LinkModel model;
  model.path[netem::kUp].bandwidth_bps = 2e6;
  model.path[netem::kDown].one_way_delay = sim::Millis(30);
  model.path[netem::kDown].jitter = sim::Millis(2);
  return model;
}

/// An experiment-driven spec with a three-model links axis: bursty loss, a
/// shallow bottleneck queue, and an asymmetric path.
SweepSpec NetemSpec() {
  SweepSpec spec;
  spec.name = "link_axis_test";
  spec.base.rtt = sim::Millis(9);
  spec.base.response_body_bytes = 4096;
  spec.axes.behaviors = {quic::ServerBehavior::kWaitForCertificate,
                         quic::ServerBehavior::kInstantAck};
  spec.axes.links = {{"ge-burst", GilbertBoth(0.2, 0.4)},
                     {"q4", ShallowDownQueue(4)},
                     {"asym", AsymmetricPath()}};
  spec.repetitions = 5;
  spec.metrics = {{"response_ttfb_ms", MetricMode::kSummary, /*exclude_negative=*/true,
                   [](const ExperimentResult& r) { return r.ResponseTtfbMs(); }},
                  {"end_time_ms", MetricMode::kTrace, /*exclude_negative=*/false,
                   [](const ExperimentResult& r) { return sim::ToMillis(r.end_time); }}};
  return spec;
}

std::string CsvText(const SweepResult& result) {
  const std::string path = testing::TempDir() + "/link_axis_csv.csv";
  {
    CsvWriter csv(testing::TempDir(), "link_axis_csv", SweepCsvHeader());
    EXPECT_TRUE(csv.active());
    WriteSweepCsv(result, csv);
  }
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::remove(path.c_str());
  return buffer.str();
}

SweepResult ShardRoundTripMerge(const SweepSpec& spec, std::size_t shards) {
  std::vector<SweepResult> partials;
  for (std::size_t i = 0; i < shards; ++i) {
    SweepSpec shard_spec = spec;
    shard_spec.shard.index = i;
    shard_spec.shard.count = shards;
    const SweepResult executed = RunSweep(shard_spec);
    std::string error;
    std::optional<SweepResult> parsed =
        ParseSweepPartialJson(SweepPartialJson(executed), &error);
    EXPECT_TRUE(parsed.has_value()) << error;
    partials.push_back(std::move(*parsed));
  }
  std::string error;
  const std::optional<SweepResult> merged = MergeSweepResults(partials, &error);
  EXPECT_TRUE(merged.has_value()) << error;
  return *merged;
}

TEST(SweepLinkAxis, EnumerationCountsAndLabelsTheAxis) {
  const SweepSpec spec = NetemSpec();
  const std::vector<SweepPoint> enumerated = Enumerate(spec);
  ASSERT_EQ(enumerated.size(), 6u);  // 3 links x 2 behaviors
  // The links loop nests outside the behavior loop; each point's config
  // carries the axis model.
  const char* expected[] = {"ge-burst", "ge-burst", "q4", "q4", "asym", "asym"};
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(enumerated[i].link, expected[i]) << i;
    EXPECT_EQ(enumerated[i].config.link,
              spec.axes.links[i / 2].model)
        << i;
  }
}

TEST(SweepLinkAxis, EmptyAxisKeepsTheBaseModelAndDefaultLabel) {
  SweepSpec spec = NetemSpec();
  spec.axes.links.clear();
  const std::vector<SweepPoint> enumerated = Enumerate(spec);
  EXPECT_EQ(enumerated.size(), 2u);
  for (const SweepPoint& point : enumerated) {
    EXPECT_EQ(point.link, "default");
    EXPECT_TRUE(point.config.link.IsDefault());
  }
  // A non-default base model without an axis is labeled "base" and survives
  // enumeration untouched.
  spec.base.link = GilbertBoth(0.1, 0.5);
  for (const SweepPoint& point : Enumerate(spec)) {
    EXPECT_EQ(point.link, "base");
    EXPECT_EQ(point.config.link, spec.base.link);
  }
}

TEST(SweepLinkAxis, CsvFoldsTheLabelIntoTheExtrasColumn) {
  const SweepResult result = RunSweep(NetemSpec());
  const std::string csv = CsvText(result);
  EXPECT_NE(csv.find("link=ge-burst"), std::string::npos);
  EXPECT_NE(csv.find("link=q4"), std::string::npos);
  EXPECT_NE(csv.find("link=asym"), std::string::npos);
  // JSON carries the label as its own (off-default only) field.
  EXPECT_NE(SweepResultJson(result).find("\"link\": \"q4\""), std::string::npos);

  SweepSpec plain = NetemSpec();
  plain.axes.links.clear();
  const SweepResult default_result = RunSweep(plain);
  EXPECT_EQ(CsvText(default_result).find("link="), std::string::npos);
  EXPECT_EQ(SweepResultJson(default_result).find("\"link\""), std::string::npos);
}

// Netem models draw from per-repetition forked RNGs, so the realized drops
// and queue timings are a function of (point, repetition) alone: any
// parallelism cap reproduces the same bytes.
TEST(SweepLinkAxis, ExecutionBitIdenticalAcrossParallelism) {
  const SweepSpec spec = NetemSpec();
  const SweepResult serial = RunSweep(spec, 1);
  const std::string json = SweepResultJson(serial);
  const std::string csv = CsvText(serial);
  // The stochastic models actually engaged: bursty loss must abort or delay
  // some repetitions relative to an ideal pipe.
  SweepSpec ideal = NetemSpec();
  ideal.axes.links.clear();
  EXPECT_NE(json, SweepResultJson(RunSweep(ideal)));

  for (const unsigned parallelism : {2u, 7u}) {
    const SweepResult result = RunSweep(spec, parallelism);
    EXPECT_EQ(SweepResultJson(result), json) << parallelism;
    EXPECT_EQ(CsvText(result), csv) << parallelism;
  }
}

TEST(SweepLinkAxis, ShardMergeByteIdenticalAcrossLayouts) {
  const SweepSpec spec = NetemSpec();
  const SweepResult single = RunSweep(spec);
  const std::string json = SweepResultJson(single);
  const std::string csv = CsvText(single);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    const SweepResult merged = ShardRoundTripMerge(spec, shards);
    EXPECT_EQ(SweepResultJson(merged), json) << shards << " shards";
    EXPECT_EQ(CsvText(merged), csv) << shards << " shards";
  }
}

// The jitter-reordering contract (path_jitter well above the inter-datagram
// spacing): reordered deliveries stay a pure function of the seed schedule,
// so thread counts and shard layouts cannot change a byte.
TEST(SweepLinkAxis, JitterReorderingDeterministicAcrossThreadsAndShards) {
  SweepSpec spec = NetemSpec();
  spec.name = "link_jitter_test";
  // ~1 ms serialization per full datagram at 10 Mbit/s; 5 ms uniform jitter
  // reorders aggressively in both directions.
  spec.base.path_jitter = sim::Millis(5);
  const SweepResult serial = RunSweep(spec, 1);
  const std::string json = SweepResultJson(serial);
  const std::string csv = CsvText(serial);

  SweepSpec calm = NetemSpec();
  calm.name = "link_jitter_test";
  EXPECT_NE(json, SweepResultJson(RunSweep(calm)));  // jitter changed outcomes

  for (const unsigned parallelism : {2u, 7u}) {
    EXPECT_EQ(SweepResultJson(RunSweep(spec, parallelism)), json) << parallelism;
  }
  for (const std::size_t shards : {std::size_t{2}, std::size_t{7}}) {
    const SweepResult merged = ShardRoundTripMerge(spec, shards);
    EXPECT_EQ(SweepResultJson(merged), json) << shards << " shards";
    EXPECT_EQ(CsvText(merged), csv) << shards << " shards";
  }
}

TEST(SweepLinkAxis, ScenarioRoundTripPreservesLinks) {
  const SweepSpec spec = NetemSpec();
  const std::string exported = ScenarioFileJson({{"link_bench", &spec}});

  std::string error;
  const std::optional<std::vector<Scenario>> scenarios = ParseScenarioFile(exported, &error);
  ASSERT_TRUE(scenarios.has_value()) << error;
  ASSERT_EQ(scenarios->size(), 1u);
  const Scenario& scenario = scenarios->front();
  ASSERT_EQ(scenario.links.size(), 3u);
  EXPECT_EQ(scenario.links[0].label, "ge-burst");
  EXPECT_EQ(scenario.links[0].model, spec.axes.links[0].model);
  EXPECT_EQ(scenario.links[1].model, spec.axes.links[1].model);
  EXPECT_EQ(scenario.links[2].model, spec.axes.links[2].model);

  SweepSpec applied = NetemSpec();
  applied.axes.links.clear();  // ApplyScenario must restore the axis
  ASSERT_TRUE(ApplyScenario(scenario, applied, &error)) << error;
  EXPECT_EQ(ScenarioFileJson({{"link_bench", &applied}}), exported);
  EXPECT_EQ(ScenarioHash(applied), ScenarioHash(spec));
}

// Two grids differing only in one link-model parameter hash apart, and the
// merge phase refuses to mix their partials.
TEST(SweepLinkAxis, ContentHashSeparatesLinkModels) {
  const SweepSpec spec = NetemSpec();
  SweepSpec tweaked = NetemSpec();
  tweaked.axes.links[0].model.loss[netem::kUp].p = 0.25;
  EXPECT_NE(ScenarioHash(spec), ScenarioHash(tweaked));

  SweepSpec shard0 = spec;
  shard0.shard = {0, 2};
  SweepSpec shard1 = tweaked;
  shard1.shard = {1, 2};
  std::string error;
  EXPECT_FALSE(
      MergeSweepResults({RunSweep(shard0), RunSweep(shard1)}, &error).has_value());
  EXPECT_NE(error.find("content-hash mismatch"), std::string::npos) << error;
}

}  // namespace
}  // namespace quicer::core
