// The telemetry registry contract: counting is a no-op until the process
// enables telemetry, per-thread counts fold across threads (sum vs
// high-water max), registries survive thread exit, and the report document
// round-trips through the JSON parser.
//
// EnableProcess is sticky, so every test here runs with telemetry on after
// the first — the disabled-path check therefore runs first and the file
// never asserts "disabled" later.
#include <gtest/gtest.h>

#include <thread>

#include "core/json.h"
#include "obs/telemetry.h"

namespace quicer::obs {
namespace {

TEST(Telemetry, DisabledCountingIsANoOpAndCheapToCall) {
  ASSERT_FALSE(ProcessEnabled());
  EXPECT_FALSE(Enabled());
  // Counting without a registry must be safe (and is the default state of
  // every thread in every bench run without --telemetry).
  Count(kEventsRun, 100);
  CountMax(kArenaBytesHighWater, 7);
  EnsureThisThread();  // no-op while the process is disabled
  EXPECT_FALSE(Enabled());
}

TEST(Telemetry, CountsFoldAcrossThreadsBySumAndMax) {
  EnableProcess();
  ASSERT_TRUE(ProcessEnabled());
  EXPECT_TRUE(Enabled());
  ResetAll();

  Count(kEventsRun, 10);
  CountMax(kArenaBytesHighWater, 5);
  std::thread worker([] {
    EnsureThisThread();
    Count(kEventsRun, 32);
    CountMax(kArenaBytesHighWater, 9);
  });
  worker.join();

  // The worker thread has exited; its registry must still be visible.
  const auto snapshot = Snapshot();
  EXPECT_EQ(snapshot[kEventsRun], 42u);
  EXPECT_EQ(snapshot[kArenaBytesHighWater], 9u);

  ResetAll();
  const auto zeroed = Snapshot();
  EXPECT_EQ(zeroed[kEventsRun], 0u);
  EXPECT_EQ(zeroed[kArenaBytesHighWater], 0u);
}

TEST(Telemetry, DescriptorsNameEveryCounterDistinctly) {
  const auto& descriptors = Descriptors();
  for (std::size_t i = 0; i < descriptors.size(); ++i) {
    ASSERT_NE(descriptors[i].name, nullptr);
    EXPECT_GT(std::string_view(descriptors[i].name).size(), 0u);
    for (std::size_t j = i + 1; j < descriptors.size(); ++j) {
      EXPECT_STRNE(descriptors[i].name, descriptors[j].name);
    }
  }
  EXPECT_EQ(std::string_view(Describe(kEventsRun).name), "sim.events_run");
  EXPECT_EQ(Describe(kEventsRun).merge, MergeMode::kSum);
  EXPECT_EQ(Describe(kArenaBytesHighWater).merge, MergeMode::kMax);
  EXPECT_EQ(Describe(kNetemMaxQueueBytesDown).merge, MergeMode::kMax);

  // Directional pairs sit at adjacent values (call sites offset by
  // direction, 0 = up).
  EXPECT_EQ(kNetemEnqueuedUp + 1, static_cast<std::size_t>(kNetemEnqueuedDown));
  EXPECT_EQ(kNetemDropPatternUp + 1, static_cast<std::size_t>(kNetemDropPatternDown));
}

TEST(Telemetry, MergeModeForNameFallsBackToSumForUnknownNames) {
  EXPECT_EQ(MergeModeForName("sim.events_run"), MergeMode::kSum);
  EXPECT_EQ(MergeModeForName(Describe(kNetemMaxQueuePktsUp).name), MergeMode::kMax);
  EXPECT_EQ(MergeModeForName("future.counter_from_a_newer_binary"), MergeMode::kSum);
}

TEST(Telemetry, SweepRecordsDrainIntoAParseableReport) {
  SetCurrentBench("fig06");
  EXPECT_EQ(CurrentBench(), "fig06");
  SweepRecord record;
  record.bench = CurrentBench();
  record.sweep = "loss_sweep";
  record.wall_seconds = 1.5;
  record.executed_runs = 300;
  record.counters = {{"sim.events_run", 4500u}, {"quic.arena.bytes_highwater", 12u}};
  AppendSweepRecord(record);
  SetCurrentBench("");

  EXPECT_EQ(RecordCounter(record, "sim.events_run"), 4500u);
  EXPECT_EQ(RecordCounter(record, "absent"), 0u);

  const std::vector<SweepRecord> drained = TakeSweepRecords();
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_TRUE(TakeSweepRecords().empty());  // drained means drained

  const std::string json = TelemetryReportJson(drained);
  std::string error;
  const std::optional<core::JsonValue> doc = core::JsonValue::Parse(json, &error);
  ASSERT_TRUE(doc.has_value()) << error << "\n" << json;
  EXPECT_EQ(doc->GetString("format"), "quicer-telemetry-v1");
  const core::JsonValue* sweeps = doc->Get("sweeps");
  ASSERT_NE(sweeps, nullptr);
  ASSERT_EQ(sweeps->Items().size(), 1u);
  const core::JsonValue& sweep = sweeps->Items()[0];
  EXPECT_EQ(sweep.GetString("bench"), "fig06");
  EXPECT_EQ(sweep.GetString("sweep"), "loss_sweep");
  EXPECT_DOUBLE_EQ(sweep.GetNumber("wall_seconds"), 1.5);
  EXPECT_EQ(static_cast<std::uint64_t>(sweep.GetNumber("executed_runs")), 300u);
  const core::JsonValue* counters = sweep.Get("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(static_cast<std::uint64_t>(counters->GetNumber("sim.events_run")), 4500u);
}

}  // namespace
}  // namespace quicer::obs
