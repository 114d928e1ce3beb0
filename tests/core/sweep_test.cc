#include "core/sweep.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>

#include "core/csv.h"
#include "core/loss_scenarios.h"
#include "core/sweep_partial.h"
#include "core/thread_pool.h"

namespace quicer::core {
namespace {

SweepSpec SmallSpec() {
  SweepSpec spec;
  spec.name = "test_sweep";
  spec.base.client = clients::ClientImpl::kQuicGo;
  spec.base.rtt = sim::Millis(9);
  spec.base.response_body_bytes = 4096;
  spec.axes.behaviors = {quic::ServerBehavior::kWaitForCertificate,
                         quic::ServerBehavior::kInstantAck};
  spec.axes.rtts = {sim::Millis(5), sim::Millis(20)};
  spec.repetitions = 6;
  return spec;
}

TEST(Sweep, EnumerateBuildsFullGridInDocumentedOrder) {
  SweepSpec spec = SmallSpec();
  const auto points = Enumerate(spec);
  ASSERT_EQ(points.size(), 4u);  // 2 RTTs x 2 behaviors
  // Outermost-to-innermost: ... RTT, mode, client, behavior.
  EXPECT_EQ(points[0].rtt_ms, 5.0);
  EXPECT_EQ(points[0].behavior, "WFC");
  EXPECT_EQ(points[1].rtt_ms, 5.0);
  EXPECT_EQ(points[1].behavior, "IACK");
  EXPECT_EQ(points[2].rtt_ms, 20.0);
  EXPECT_EQ(points[3].rtt_ms, 20.0);
  for (std::size_t i = 0; i < points.size(); ++i) EXPECT_EQ(points[i].index, i);
}

TEST(Sweep, EmptyAxesYieldSingleBasePoint) {
  SweepSpec spec;
  spec.base.client = clients::ClientImpl::kNgtcp2;
  spec.repetitions = 1;
  const auto points = Enumerate(spec);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].client, "ngtcp2");
  EXPECT_EQ(points[0].loss, "none");
  EXPECT_EQ(points[0].variant, "base");
  EXPECT_TRUE(points[0].extras.empty());
  EXPECT_EQ(points[0].ExtrasLabel(), "");
}

TEST(Sweep, SkipsUnsupportedHttp3Clients) {
  SweepSpec spec;
  spec.axes.http_versions = {http::Version::kHttp1, http::Version::kHttp3};
  spec.axes.clients.assign(clients::kAllClients.begin(), clients::kAllClients.end());
  const auto points = Enumerate(spec);
  // 8 clients on HTTP/1.1, 7 on HTTP/3 (go-x-net has no HTTP/3 support).
  EXPECT_EQ(points.size(), 15u);
}

TEST(Sweep, ExtrasEnumerateOutermostInDeclarationOrder) {
  SweepSpec spec;
  spec.axes.extras = {{"vantage", {{"A", 0}, {"B", 1}}}, {"day", {{"0", 0}, {"1", 1}, {"2", 2}}}};
  spec.axes.behaviors = {quic::ServerBehavior::kWaitForCertificate,
                         quic::ServerBehavior::kInstantAck};
  const auto points = Enumerate(spec);
  ASSERT_EQ(points.size(), 12u);  // 2 vantages x 3 days x 2 behaviors
  // First axis varies slowest; behaviors innermost.
  EXPECT_EQ(points[0].Extra("vantage")->label, "A");
  EXPECT_EQ(points[0].Extra("day")->label, "0");
  EXPECT_EQ(points[0].behavior, "WFC");
  EXPECT_EQ(points[1].behavior, "IACK");
  EXPECT_EQ(points[2].Extra("day")->label, "1");
  EXPECT_EQ(points[6].Extra("vantage")->label, "B");
  EXPECT_EQ(points[6].Extra("vantage")->value, 1);
  EXPECT_EQ(points[0].ExtrasLabel(), "vantage=A|day=0");
  EXPECT_EQ(points[0].Extra("unknown"), nullptr);
}

TEST(Sweep, MedianMatchesCollectTtfbMs) {
  SweepSpec spec = SmallSpec();
  const SweepResult result = RunSweep(spec);
  ASSERT_EQ(result.points.size(), 4u);
  EXPECT_EQ(result.total_runs, 24u);
  EXPECT_EQ(result.executed_runs, 24u);

  for (const PointSummary& summary : result.points) {
    const auto legacy = CollectTtfbMs(summary.point.config, spec.repetitions);
    ASSERT_EQ(summary.values().count(), legacy.size());
    EXPECT_DOUBLE_EQ(summary.values().Median(), stats::Median(legacy))
        << summary.point.rtt_ms << " " << summary.point.behavior;
  }
}

TEST(Sweep, DeterministicAcrossParallelismCaps) {
  SweepSpec spec = SmallSpec();
  // Per-client loss keyed off the resolved config exercises the loss axis;
  // a netem Bernoulli link consults the seeded RNG, so its runs actually
  // diverge.
  spec.axes.losses = {{"second-client-flight",
                       [](const ExperimentConfig& c) { return SecondClientFlightLoss(c.client); }}};
  SweepLink random{"random", {}};
  random.model.loss[netem::kDown] = {netem::LossModel::Kind::kBernoulli, 0.08};
  random.model.loss[netem::kUp] = {netem::LossModel::Kind::kBernoulli, 0.05};
  spec.axes.links = {SweepLink{}, random};
  spec.base.time_limit = sim::Seconds(30);
  spec.metrics = {{"response_ttfb_ms", MetricMode::kSummary, /*exclude_negative=*/true,
                   [](const ExperimentResult& r) { return r.ResponseTtfbMs(); }}};

  const SweepResult serial = RunSweep(spec, /*max_parallelism=*/1);
  for (unsigned cap : {2u, 7u}) {
    const SweepResult parallel = RunSweep(spec, cap);
    ASSERT_EQ(serial.points.size(), parallel.points.size());
    for (std::size_t i = 0; i < serial.points.size(); ++i) {
      const stats::Summary a = serial.points[i].values().Summarize();
      const stats::Summary b = parallel.points[i].values().Summarize();
      EXPECT_EQ(a.count, b.count) << cap;
      EXPECT_DOUBLE_EQ(a.median, b.median) << cap;
      EXPECT_DOUBLE_EQ(a.mean, b.mean) << cap;
      EXPECT_DOUBLE_EQ(a.stddev, b.stddev) << cap;  // fold order is fixed
      EXPECT_EQ(serial.points[i].aborted(), parallel.points[i].aborted()) << cap;
      EXPECT_EQ(serial.points[i].values().samples(), parallel.points[i].values().samples())
          << cap;
    }
  }
}

// Trace-mode vectors must be bit-identical to a serial run for any thread
// count: each repetition's value lands in a slot keyed by its index and the
// trace is folded in repetition order.
TEST(Sweep, TraceDeterministicAcrossParallelismCaps) {
  SweepSpec spec = SmallSpec();
  spec.repetitions = 9;
  spec.metrics = {{"ttfb_ms", MetricMode::kTrace, /*exclude_negative=*/true,
                   [](const ExperimentResult& r) { return r.TtfbMs(); }},
                  {"end_time_ms", MetricMode::kTrace, /*exclude_negative=*/false,
                   [](const ExperimentResult& r) { return sim::ToMillis(r.end_time); }}};

  const SweepResult serial = RunSweep(spec, /*max_parallelism=*/1);
  for (unsigned cap : {2u, 7u}) {
    const SweepResult parallel = RunSweep(spec, cap);
    ASSERT_EQ(serial.points.size(), parallel.points.size());
    for (std::size_t i = 0; i < serial.points.size(); ++i) {
      for (const char* metric : {"ttfb_ms", "end_time_ms"}) {
        const MetricSeries* a = serial.points[i].Metric(metric);
        const MetricSeries* b = parallel.points[i].Metric(metric);
        ASSERT_NE(a, nullptr);
        ASSERT_NE(b, nullptr);
        EXPECT_EQ(a->trace, b->trace) << metric << " cap " << cap;  // bit-identical
      }
    }
  }
}

// A custom runner: no experiments, deterministic values from the context.
TEST(Sweep, CustomRunnerFeedsMetrics) {
  SweepSpec spec;
  spec.name = "runner_test";
  spec.axes.extras = {{"k", {{"ten", 10}, {"twenty", 20}}}};
  spec.repetitions = 4;
  spec.metrics = {{"value", MetricMode::kTrace, /*exclude_negative=*/false, nullptr},
                  {"rep", MetricMode::kSummary, /*exclude_negative=*/false, nullptr}};
  spec.runner = [](const SweepRunContext& ctx) {
    const double k = static_cast<double>(ctx.point.Extra("k")->value);
    return std::vector<double>{k + ctx.repetition, static_cast<double>(ctx.repetition)};
  };
  const SweepResult result = RunSweep(spec);
  ASSERT_EQ(result.points.size(), 2u);
  EXPECT_EQ(result.points[0].Metric("value")->trace, (std::vector<double>{10, 11, 12, 13}));
  EXPECT_EQ(result.points[1].Metric("value")->trace, (std::vector<double>{20, 21, 22, 23}));
  EXPECT_DOUBLE_EQ(result.points[0].Metric("rep")->summary.mean(), 1.5);
  const PointSummary* point =
      result.Find([](const SweepPoint& p) { return p.Extra("k")->value == 20; });
  ASSERT_NE(point, nullptr);
  const MetricSeries* series = point->Metric("value");
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->trace.front(), 20.0);
}

// Per-metric value semantics: NaN is "no sample" (skipped) in every mode;
// negatives abort only while the metric's exclude_negative is set.
TEST(Sweep, PerMetricExcludeNegativeAndNanSemantics) {
  SweepSpec spec;
  spec.name = "exclusion_test";
  spec.repetitions = 5;
  spec.metrics = {{"excl", MetricMode::kSummary, /*exclude_negative=*/true, nullptr},
                  {"raw", MetricMode::kSummary, /*exclude_negative=*/false, nullptr},
                  {"excl_trace", MetricMode::kTrace, /*exclude_negative=*/true, nullptr}};
  // Repetitions produce: 1, -1, NaN, 4, -5 for every metric.
  spec.runner = [](const SweepRunContext& ctx) {
    const double values[] = {1.0, -1.0, NoSample(), 4.0, -5.0};
    const double v = values[ctx.repetition];
    return std::vector<double>{v, v, v};
  };
  const SweepResult result = RunSweep(spec);
  ASSERT_EQ(result.points.size(), 1u);
  const PointSummary& point = result.points[0];

  const MetricSeries* excl = point.Metric("excl");
  EXPECT_EQ(excl->count(), 2u);    // 1 and 4
  EXPECT_EQ(excl->aborted, 2u);    // -1 and -5
  EXPECT_EQ(excl->skipped, 1u);    // NaN
  EXPECT_DOUBLE_EQ(excl->Median(), 2.5);

  const MetricSeries* raw = point.Metric("raw");
  EXPECT_EQ(raw->count(), 4u);  // negatives are data
  EXPECT_EQ(raw->aborted, 0u);
  EXPECT_EQ(raw->skipped, 1u);
  EXPECT_DOUBLE_EQ(raw->summary.min(), -5.0);

  const MetricSeries* excl_trace = point.Metric("excl_trace");
  EXPECT_EQ(excl_trace->trace, (std::vector<double>{1.0, 4.0}));  // repetition order
  EXPECT_EQ(excl_trace->aborted, 2u);
  EXPECT_EQ(excl_trace->skipped, 1u);
  EXPECT_DOUBLE_EQ(excl_trace->MedianOrNegative(), 2.5);
}

// A runner may return fewer values than there are metrics: the missing ones
// are NoSample(), so an empty vector is "no sample" for every metric.
TEST(Sweep, ShortRunnerResultMeansNoSample) {
  SweepSpec spec;
  spec.name = "short_runner_test";
  spec.axes.extras = {{"k", {{"a", 1}, {"b", 2}}}};
  spec.repetitions = 9;
  spec.metrics = {{"trace", MetricMode::kTrace, /*exclude_negative=*/false, nullptr},
                  {"summary", MetricMode::kSummary, /*exclude_negative=*/true, nullptr},
                  {"third", MetricMode::kSummary, /*exclude_negative=*/false, nullptr}};
  const auto value = [](const SweepRunContext& ctx) {
    return static_cast<double>(ctx.point.Extra("k")->value * 100 + ctx.repetition);
  };
  spec.runner = [&](const SweepRunContext& ctx) {
    const double v = ctx.repetition % 2 == 1 ? NoSample() : value(ctx);
    return std::vector<double>{v, v, ctx.repetition % 4 == 2 ? NoSample() : v};
  };
  const SweepResult padded = RunSweep(spec, 4);
  spec.runner = [&](const SweepRunContext& ctx) {
    if (ctx.repetition % 2 == 1) return std::vector<double>();
    const double v = value(ctx);
    if (ctx.repetition % 4 == 2) return std::vector<double>{v, v};
    return std::vector<double>{v, v, v};
  };
  const SweepResult shortened = RunSweep(spec, 4);

  EXPECT_EQ(SweepResultJson(shortened), SweepResultJson(padded));
  EXPECT_EQ(SweepPartialJson(shortened), SweepPartialJson(padded));
  ASSERT_EQ(shortened.points.size(), 2u);
  EXPECT_EQ(shortened.points[0].Metric("trace")->trace,
            (std::vector<double>{100, 102, 104, 106, 108}));
  EXPECT_EQ(shortened.points[0].Metric("trace")->skipped, 4u);
  EXPECT_EQ(shortened.points[0].Metric("third")->skipped, 6u);
}

// A native block runner fills its block's slots itself: the slots it leaves
// read as NoSample(), the blocks tile the repetition window, and the block's
// seed schedule is the one a per-repetition runner sees.
TEST(Sweep, BlockRunnerSlotsItLeavesReadAsNoSample) {
  SweepSpec spec;
  spec.name = "block_runner_test";
  spec.axes.extras = {{"k", {{"a", 1}, {"b", 2}}}};
  spec.repetitions = 1000;
  spec.shard.rep_begin = 3;
  spec.shard.rep_end = 998;
  spec.metrics = {{"trace", MetricMode::kTrace, /*exclude_negative=*/false, nullptr},
                  {"summary", MetricMode::kSummary, /*exclude_negative=*/true, nullptr},
                  {"third", MetricMode::kSummary, /*exclude_negative=*/false, nullptr}};
  // Odd repetitions: no value; repetitions 2 mod 4: the first two metrics.
  const auto value = [](const SweepPoint& point, std::size_t rep, std::uint64_t seed) {
    return static_cast<double>(point.Extra("k")->value * 10000 + rep) +
           static_cast<double>(seed % 7) / 8.0;
  };
  spec.runner = [&](const SweepRunContext& ctx) {
    const double v = ctx.repetition % 2 == 1
                         ? NoSample()
                         : value(ctx.point, static_cast<std::size_t>(ctx.repetition), ctx.seed);
    return std::vector<double>{v, v, ctx.repetition % 4 == 2 ? NoSample() : v};
  };
  const SweepResult padded = RunSweep(spec, 1);

  std::atomic<std::size_t> covered{0};
  std::atomic<std::size_t> blocks{0};
  std::atomic<std::size_t> bad{0};
  spec.runner = SweepRunner(
      [&](const SweepBlock& block) {
        ++blocks;
        covered += block.count;
        if (block.width != 3 || block.first < 3 || block.first + block.count > 998) ++bad;
        for (std::size_t i = 0; i < block.count; ++i) {
          double* row = block.Row(i);
          for (std::size_t m = 0; m < block.width; ++m) {
            if (!std::isnan(row[m])) ++bad;  // every slot arrives as NoSample()
          }
          const std::size_t rep = block.first + i;
          if (rep % 2 == 1) continue;
          row[0] = row[1] = value(block.point, rep, block.Seed(rep));
          if (rep % 4 != 2) row[2] = row[0];
        }
      },
      nullptr);
  for (unsigned cap : {1u, 4u}) {
    covered = 0;
    blocks = 0;
    const SweepResult blocked = RunSweep(spec, cap);
    EXPECT_EQ(bad.load(), 0u) << cap;
    EXPECT_EQ(covered.load(), 2u * 995u) << cap;
    EXPECT_LT(blocks.load(), covered.load()) << cap;  // blocks of more than one repetition
    EXPECT_EQ(SweepResultJson(blocked), SweepResultJson(padded)) << cap;
    EXPECT_EQ(SweepPartialJson(blocked), SweepPartialJson(padded)) << cap;
    EXPECT_EQ(blocked.points[1].Metric("third")->skipped, 995u - 249u) << cap;
  }
}

TEST(Sweep, DefaultMetricIsTtfbWithExcludedNegatives) {
  SweepSpec spec = SmallSpec();
  spec.repetitions = 3;
  const SweepResult result = RunSweep(spec);
  for (const PointSummary& summary : result.points) {
    ASSERT_EQ(summary.metrics.size(), 1u);
    EXPECT_EQ(summary.primary().name, "ttfb_ms");
    EXPECT_EQ(summary.primary().mode, MetricMode::kSummary);
  }
}

TEST(Sweep, VariantsMutateConfig) {
  SweepSpec spec;
  spec.base.client = clients::ClientImpl::kQuicGo;
  spec.axes.variants = {
      {"pto=50", [](ExperimentConfig& c) { c.server_default_pto = sim::Millis(50); }},
      {"pto=400", [](ExperimentConfig& c) { c.server_default_pto = sim::Millis(400); }}};
  const auto points = Enumerate(spec);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].variant, "pto=50");
  EXPECT_EQ(points[0].config.server_default_pto, sim::Millis(50));
  EXPECT_EQ(points[1].variant, "pto=400");
  EXPECT_EQ(points[1].config.server_default_pto, sim::Millis(400));
}

TEST(Sweep, CustomSeedScheduleMatchesLegacyLoop) {
  SweepSpec spec;
  spec.base.client = clients::ClientImpl::kQuicGo;
  spec.base.response_body_bytes = 4096;
  spec.base.link.loss[netem::kDown] = {netem::LossModel::Kind::kBernoulli, 0.1};
  spec.repetitions = 8;
  spec.seed_base = 500;
  spec.seed_stride = 101;
  spec.metrics = {{"ttfb_ms", MetricMode::kSummary, /*exclude_negative=*/true,
                   [](const ExperimentResult& r) { return r.completed ? r.TtfbMs() : -1.0; }}};
  const SweepResult result = RunSweep(spec);

  std::vector<double> legacy;
  std::size_t legacy_aborted = 0;
  ExperimentConfig config = spec.base;
  for (int i = 0; i < spec.repetitions; ++i) {
    config.seed = 500 + static_cast<std::uint64_t>(i) * 101;
    const ExperimentResult r = RunExperiment(config);
    if (r.completed) {
      legacy.push_back(r.TtfbMs());
    } else {
      ++legacy_aborted;
    }
  }
  ASSERT_EQ(result.points.size(), 1u);
  EXPECT_EQ(result.points[0].aborted(), legacy_aborted);
  EXPECT_EQ(result.points[0].values().samples(), legacy);
}

TEST(Sweep, FindLocatesPoints) {
  SweepSpec spec = SmallSpec();
  const SweepResult result = RunSweep(spec);
  const PointSummary* cell = result.Find([](const SweepPoint& p) {
    return p.rtt_ms == 20.0 && p.config.behavior == quic::ServerBehavior::kInstantAck;
  });
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->point.behavior, "IACK");
  EXPECT_EQ(result.Find([](const SweepPoint&) { return false; }), nullptr);
}

// One CSV row and one JSON metric object per (point, metric); the trace
// vector rides in the JSON export.
TEST(Sweep, MultiMetricCsvAndJsonLayout) {
  SweepSpec spec;
  spec.name = "layout_test";
  spec.axes.extras = {{"k", {{"a", 1}, {"b", 2}}}};
  spec.repetitions = 3;
  spec.metrics = {{"m_summary", MetricMode::kSummary, /*exclude_negative=*/false, nullptr},
                  {"m_trace", MetricMode::kTrace, /*exclude_negative=*/false, nullptr}};
  spec.runner = [](const SweepRunContext& ctx) {
    const double base = static_cast<double>(ctx.point.Extra("k")->value * 100);
    return std::vector<double>{base + ctx.repetition, base - ctx.repetition};
  };
  const SweepResult result = RunSweep(spec);

  const std::string json = SweepResultJson(result);
  EXPECT_NE(json.find("\"sweep\": \"layout_test\""), std::string::npos);
  EXPECT_NE(json.find("\"extras\": {\"k\": \"a\"}"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"m_summary\""), std::string::npos);
  EXPECT_NE(json.find("\"mode\": \"trace\""), std::string::npos);
  EXPECT_NE(json.find("\"trace\": [100, 99, 98]"), std::string::npos);
  EXPECT_NE(json.find("\"trace\": [200, 199, 198]"), std::string::npos);
  std::size_t objects = 0;
  for (std::size_t at = json.find("{\"point\""); at != std::string::npos;
       at = json.find("{\"point\"", at + 1)) {
    ++objects;
  }
  EXPECT_EQ(objects, result.points.size());

  // Header carries the metric columns; the CSV has points x metrics rows.
  const auto& header = SweepCsvHeader();
  EXPECT_NE(std::find(header.begin(), header.end(), "metric"), header.end());
  EXPECT_NE(std::find(header.begin(), header.end(), "metric_mode"), header.end());
  EXPECT_NE(std::find(header.begin(), header.end(), "extras"), header.end());
  EXPECT_NE(std::find(header.begin(), header.end(), "skipped"), header.end());
  CsvWriter csv(testing::TempDir(), "sweep_export_test", SweepCsvHeader());
  ASSERT_TRUE(csv.active());
  WriteSweepCsv(result, csv);
  EXPECT_EQ(csv.rows(), result.points.size() * spec.metrics.size());
}

TEST(Sweep, ObserverReportsEveryPointSerialized) {
  SweepSpec spec;
  spec.name = "observer_test";
  spec.axes.extras = {{"k", {{"a", 1}, {"b", 2}, {"c", 3}}}};
  spec.repetitions = 4;
  spec.metrics = {{"v", MetricMode::kSummary, /*exclude_negative=*/false, nullptr}};
  spec.runner = [](const SweepRunContext& ctx) {
    return std::vector<double>{static_cast<double>(ctx.repetition)};
  };
  std::atomic<std::size_t> calls{0};
  std::size_t last_completed = 0;
  std::size_t last_runs = 0;
  spec.observer = [&](const SweepProgress& progress) {
    ++calls;
    last_completed = progress.points_completed;  // serialized: no race
    last_runs = progress.runs_completed;
    EXPECT_EQ(progress.points_total, 3u);
    EXPECT_EQ(progress.runs_total, 12u);
    EXPECT_EQ(progress.sweep, "observer_test");
  };
  const SweepResult result = RunSweep(spec);
  EXPECT_EQ(calls.load(), 3u);
  EXPECT_EQ(last_completed, 3u);
  EXPECT_EQ(last_runs, 12u);
  EXPECT_EQ(result.executed_runs, 12u);
}

// Jobs carry blocks of repetitions; a window that is not a multiple of any
// block size must still fold every repetition once, in order, for any
// parallelism, and complete each point exactly once.
TEST(Sweep, BlockScheduledRepetitionsMatchDirectLoop) {
  const auto value = [](std::size_t point, std::size_t rep) {
    if ((rep * 7 + point) % 13 == 0) return NoSample();
    return static_cast<double>(point * 100000 + rep) * 0.25;
  };
  SweepSpec spec;
  spec.name = "block_test";
  spec.axes.extras = {{"k", {{"a", 1}, {"b", 2}, {"c", 3}}}};
  spec.repetitions = 5000;
  spec.shard.rep_begin = 7;
  spec.shard.rep_end = 4100;
  spec.metrics = {{"summary", MetricMode::kSummary, /*exclude_negative=*/false, nullptr},
                  {"trace", MetricMode::kTrace, /*exclude_negative=*/false, nullptr}};
  spec.runner = [&](const SweepRunContext& ctx) {
    const double v = value(ctx.point.index, static_cast<std::size_t>(ctx.repetition));
    return std::vector<double>{v, v};
  };

  for (unsigned cap : {1u, 2u, 7u}) {
    std::atomic<std::size_t> observed{0};
    spec.observer = [&](const SweepProgress&) { ++observed; };
    const SweepResult result = RunSweep(spec, cap);
    EXPECT_EQ(observed.load(), 3u) << cap;
    ASSERT_EQ(result.points.size(), 3u);
    EXPECT_EQ(result.executed_runs, 3u * 4093u) << cap;
    for (std::size_t i = 0; i < 3; ++i) {
      stats::Accumulator summary(spec.reservoir_capacity);
      std::vector<double> trace;
      std::size_t skipped = 0;
      for (std::size_t rep = 7; rep < 4100; ++rep) {
        const double v = value(i, rep);
        if (std::isnan(v)) {
          ++skipped;
          continue;
        }
        summary.Add(v);
        trace.push_back(v);
      }
      const PointSummary& point = result.points[i];
      EXPECT_TRUE(point.executed);
      const MetricSeries* got_summary = point.Metric("summary");
      const MetricSeries* got_trace = point.Metric("trace");
      ASSERT_NE(got_summary, nullptr);
      ASSERT_NE(got_trace, nullptr);
      EXPECT_EQ(got_summary->skipped, skipped) << cap;
      EXPECT_EQ(got_trace->skipped, skipped) << cap;
      EXPECT_EQ(got_summary->summary.samples(), summary.samples())
          << "point " << i << " cap " << cap;
      EXPECT_EQ(got_summary->summary.Summarize().mean, summary.Summarize().mean) << cap;
      EXPECT_EQ(got_trace->trace, trace) << "point " << i << " cap " << cap;
    }
  }
}

// The memo: its make runs once per (RunSweep call, memo) while the blocks
// run on several lanes, every repetition reads its own memo's value, and a
// second RunSweep of the same spec computes afresh. Without a memo key every
// point has its own memo; with one, the points of a key share one (three
// keys of four adjacent points each, so the job order must interleave the
// keys). Results are identical at every parallelism.
TEST(Sweep, PointMemoComputesOncePerPointPerRun) {
  constexpr std::size_t kPoints = 12;
  for (const bool keyed : {false, true}) {
    SCOPED_TRACE(keyed ? "keyed" : "per point");
    const auto memo_of = [keyed](std::size_t point) { return keyed ? point / 4 : point; };
    std::array<std::atomic<int>, kPoints> makes{};
    SweepSpec spec;
    spec.name = "memo_test";
    SweepExtraAxis axis{"k", {}};
    for (std::size_t i = 0; i < kPoints; ++i) {
      axis.values.push_back({std::to_string(i), static_cast<std::int64_t>(i)});
    }
    spec.axes.extras = {axis};
    spec.repetitions = 3000;  // tens of blocks per point at 4 lanes
    spec.metrics = {{"value", MetricMode::kTrace, /*exclude_negative=*/false, nullptr}};
    if (keyed) {
      spec.memo_key = [&](const SweepPoint& point) {
        return "key" + std::to_string(memo_of(point.index));
      };
    }
    spec.runner = [&](const SweepRunContext& ctx) {
      const std::size_t& memo = ctx.memo.Get([&] {
        // Widens the window in which other lanes reach the same memo.
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        ++makes[memo_of(ctx.point.index)];
        return memo_of(ctx.point.index);
      });
      EXPECT_EQ(memo, memo_of(ctx.point.index)) << "point " << ctx.point.index;
      return std::vector<double>{static_cast<double>(memo * 10000 + ctx.repetition)};
    };

    std::string first_json;
    int runs = 0;
    for (unsigned cap : {1u, 2u, 7u}) {
      const SweepResult result = RunSweep(spec, cap);
      ++runs;
      ASSERT_EQ(result.points.size(), kPoints);
      for (std::size_t m = 0; m < kPoints; ++m) {
        const bool used = keyed ? m < 3 : true;
        EXPECT_EQ(makes[m].load(), used ? runs : 0) << "memo " << m << " cap " << cap;
      }
      for (std::size_t i = 0; i < kPoints; ++i) {
        const std::vector<double>& trace = result.points[i].primary().trace;
        ASSERT_EQ(trace.size(), 3000u);
        EXPECT_EQ(trace.front(), static_cast<double>(memo_of(i) * 10000)) << i;
        EXPECT_EQ(trace.back(), static_cast<double>(memo_of(i) * 10000 + 2999)) << i;
      }
      const std::string json = SweepResultJson(result);
      if (first_json.empty()) first_json = json;
      EXPECT_EQ(json, first_json) << "cap " << cap;
    }
  }
}

// Points with distinct memo keys start their make calls together: with two
// keys of three adjacent points each and two lanes, the first two jobs are
// the two keys' first points, so each make sees the other start. Job order
// by point id would queue the second lane on the first key's call_once.
TEST(Sweep, MemoKeysStartConcurrently) {
  if (ThreadPool::Global().Lanes(2) < 2) GTEST_SKIP() << "needs two pool lanes";
  std::atomic<int> started{0};
  std::atomic<int> timed_out{0};
  SweepSpec spec;
  spec.name = "memo_key_order_test";
  spec.axes.extras = {{"k", {{"a", 0}, {"b", 1}, {"c", 2}, {"d", 3}, {"e", 4}, {"f", 5}}}};
  spec.repetitions = 1;
  spec.metrics = {{"value", MetricMode::kSummary, /*exclude_negative=*/false, nullptr}};
  spec.memo_key = [](const SweepPoint& point) { return point.index < 3 ? "low" : "high"; };
  spec.runner = [&](const SweepRunContext& ctx) {
    const bool& concurrent = ctx.memo.Get([&] {
      ++started;
      const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (started.load() < 2) {
        if (std::chrono::steady_clock::now() > give_up) {
          ++timed_out;
          return false;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return true;
    });
    return std::vector<double>{concurrent ? 1.0 : 0.0};
  };
  const SweepResult result = RunSweep(spec, /*max_parallelism=*/2);
  EXPECT_EQ(started.load(), 2);
  EXPECT_EQ(timed_out.load(), 0);
  for (const PointSummary& summary : result.points) {
    EXPECT_EQ(summary.values().min(), 1.0) << summary.point.index;
  }
}

}  // namespace
}  // namespace quicer::core
