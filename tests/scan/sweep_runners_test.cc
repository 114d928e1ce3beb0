#include "scan/sweep_runners.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "core/sweep.h"

namespace quicer::scan {
namespace {

constexpr std::size_t kDomains = 20'000;
constexpr std::uint64_t kProberSeed = 23;

std::shared_ptr<const TrancoPopulation> Population() {
  static const auto population = std::make_shared<const TrancoPopulation>(kDomains, 5);
  return population;
}

// Two metrics with the shapes the scan benches use: a success-gated flag
// and a success-gated delay.
std::vector<ProbeMetricFn> Metrics() {
  return {[](const core::SweepPoint&, const Domain&, const ProbeResult& r) {
            return r.success ? (r.iack_observed ? 1.0 : 0.0) : core::NoSample();
          },
          [](const core::SweepPoint&, const Domain&, const ProbeResult& r) {
            return r.success ? r.ack_sh_delay_ms : core::NoSample();
          }};
}

core::SweepSpec ScanSpec(bool cdn_axis) {
  core::SweepSpec spec;
  spec.name = "probe_runner_test";
  spec.axes.extras = {DayAxis(2), VantageAxis({Vantage::kHamburg, Vantage::kHongKong})};
  if (cdn_axis) {
    spec.axes.extras.push_back(CdnAxis({Cdn::kCloudflare, Cdn::kGoogle, Cdn::kOthers}));
  }
  spec.repetitions = static_cast<int>(kDomains);
  spec.metrics = {{"iack", core::MetricMode::kTrace, /*exclude_negative=*/false, nullptr},
                  {"delay", core::MetricMode::kTrace, /*exclude_negative=*/false, nullptr}};
  spec.runner = ProbeRunner(Population(), kProberSeed, MatchPointCdn(), Metrics());
  return spec;
}

// The per-domain loop the runner replaces: probe from the point's vantage
// and day, "no sample" for domains of another CDN than the point's.
void ExpectMatchesReferenceLoop(const core::SweepResult& result) {
  const Prober prober(kProberSeed);
  const std::vector<ProbeMetricFn> metrics = Metrics();
  const auto& domains = Population()->domains();
  for (const core::PointSummary& summary : result.points) {
    const core::SweepPoint& point = summary.point;
    const std::optional<Cdn> cdn = PointCdn(point);
    ASSERT_EQ(summary.metrics.size(), metrics.size());
    for (std::size_t m = 0; m < metrics.size(); ++m) {
      std::vector<double> trace;
      std::size_t skipped = 0;
      for (const Domain& domain : domains) {
        double v = core::NoSample();
        if (!cdn.has_value() || domain.cdn == *cdn) {
          v = metrics[m](point, domain,
                         prober.Probe(domain, PointVantage(point), PointDay(point)));
        }
        if (std::isnan(v)) {
          ++skipped;
        } else {
          trace.push_back(v);
        }
      }
      const core::MetricSeries& series = summary.metrics[m];
      EXPECT_EQ(series.skipped, skipped) << point.ExtrasLabel() << " metric " << m;
      EXPECT_EQ(series.trace, trace) << point.ExtrasLabel() << " metric " << m;
    }
  }
}

TEST(ProbeRunner, MatchesReferenceLoopAtAnyParallelism) {
  const core::SweepSpec spec = ScanSpec(/*cdn_axis=*/true);
  for (unsigned cap : {1u, 4u}) {
    const core::SweepResult result = core::RunSweep(spec, cap);
    ASSERT_EQ(result.points.size(), 12u) << cap;  // 2 days x 2 vantages x 3 CDNs
    ExpectMatchesReferenceLoop(result);
  }
}

TEST(ProbeRunner, RepetitionWindowsMergeToTheWholeRun) {
  core::SweepSpec spec = ScanSpec(/*cdn_axis=*/true);
  const core::SweepResult whole = core::RunSweep(spec, 4);
  std::vector<core::SweepResult> partials;
  for (const auto& [begin, end] : {std::pair<std::size_t, std::size_t>{0, 7'001},
                                   std::pair<std::size_t, std::size_t>{7'001, kDomains}}) {
    spec.shard.rep_begin = begin;
    spec.shard.rep_end = end;
    partials.push_back(core::RunSweep(spec, 4));
  }
  std::string error;
  const std::optional<core::SweepResult> merged = core::MergeSweepResults(partials, &error);
  ASSERT_TRUE(merged.has_value()) << error;
  EXPECT_EQ(core::SweepResultJson(*merged), core::SweepResultJson(whole));
  ExpectMatchesReferenceLoop(*merged);
}

// A filtered repetition returns an empty vector that owns no heap block (the
// sweep reads it as "no sample" for every metric), and the results match the
// reference loop; a repetition past the population does the same.
TEST(ProbeRunner, FilteredRepetitionsAllocateNothing) {
  core::SweepSpec spec = ScanSpec(/*cdn_axis=*/true);
  const core::SweepRunner inner = spec.runner;
  std::atomic<std::size_t> skips{0};
  std::atomic<std::size_t> probes{0};
  std::atomic<std::size_t> bad{0};
  spec.runner = [&](const core::SweepRunContext& ctx) {
    std::vector<double> values = inner(ctx);
    const Domain& domain = Population()->domains()[static_cast<std::size_t>(ctx.repetition)];
    if (domain.cdn == *PointCdn(ctx.point)) {
      ++probes;
      if (values.size() != 2) ++bad;
    } else {
      ++skips;
      if (values.capacity() != 0) ++bad;
    }
    return values;
  };
  const core::SweepResult result = core::RunSweep(spec, 4);
  EXPECT_EQ(bad.load(), 0u);
  EXPECT_EQ(skips.load() + probes.load(), result.points.size() * kDomains);
  EXPECT_GT(skips.load(), probes.load());
  ExpectMatchesReferenceLoop(result);

  const std::vector<core::SweepPoint> points = core::Enumerate(spec);
  core::PointMemo memo;
  const core::SweepRunContext past_end{points.front(), static_cast<int>(kDomains), 0, memo};
  EXPECT_EQ(inner(past_end).capacity(), 0u);
}

TEST(ProbeRunner, WithoutCdnAxisEveryRepetitionProbes) {
  core::SweepSpec spec = ScanSpec(/*cdn_axis=*/false);
  std::atomic<std::size_t> probes{0};
  std::vector<ProbeMetricFn> counting = {
      [&](const core::SweepPoint&, const Domain&, const ProbeResult&) {
        ++probes;
        return 1.0;
      }};
  spec.metrics = {{"probed", core::MetricMode::kSummary, /*exclude_negative=*/false, nullptr}};
  for (ProbeFilter filter : {MatchPointCdn(), ProbeFilter{}}) {
    probes = 0;
    spec.runner = ProbeRunner(Population(), kProberSeed, filter, counting);
    const core::SweepResult result = core::RunSweep(spec, 4);
    ASSERT_EQ(result.points.size(), 4u);
    EXPECT_EQ(probes.load(), 4 * kDomains);
    for (const core::PointSummary& summary : result.points) {
      EXPECT_EQ(summary.primary().skipped, 0u);
      EXPECT_EQ(summary.primary().count(), kDomains);
    }
  }
}

TEST(StudyRunner, RunsOneStudyPerPointAcrossBlocks) {
  constexpr int kHours = 48;
  std::array<std::atomic<int>, kAllVantages.size()> configs{};
  core::SweepSpec spec;
  spec.name = "study_runner_test";
  spec.axes.extras = {VantageAxis({kAllVantages.begin(), kAllVantages.end()})};
  // 4 points x 48 repetitions: one repetition per block, so every lane
  // reaches every point.
  spec.repetitions = kHours;
  spec.metrics = {{"hour", core::MetricMode::kTrace, /*exclude_negative=*/false, nullptr},
                  {"median_ack_ms", core::MetricMode::kTrace, /*exclude_negative=*/false,
                   nullptr}};
  auto make_config = [](const core::SweepPoint& point) {
    CloudflareStudyConfig config;
    config.vantage = PointVantage(point);
    config.hours = kHours;
    config.samples_per_hour = 2;
    config.seed = 7 + static_cast<std::uint64_t>(config.vantage);
    return config;
  };
  spec.runner = StudyRunner(
      [&](const core::SweepPoint& point) {
        ++configs[point.index];
        return make_config(point);
      },
      {[](const StudyOutcome& outcome, const core::SweepRunContext& ctx) {
         return static_cast<double>(
             outcome.points[static_cast<std::size_t>(ctx.repetition)].hour);
       },
       [](const StudyOutcome& outcome, const core::SweepRunContext& ctx) {
         return outcome.points[static_cast<std::size_t>(ctx.repetition)].median_ack_ms;
       }});

  const core::SweepResult result = core::RunSweep(spec, 4);
  ASSERT_EQ(result.points.size(), kAllVantages.size());
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    EXPECT_EQ(configs[i].load(), 1) << "point " << i;
    const core::PointSummary& summary = result.points[i];
    std::vector<double> hours;
    std::vector<double> ack_ms;
    for (const HourlyPoint& hour : RunCloudflareStudy(make_config(summary.point))) {
      hours.push_back(hour.hour);
      ack_ms.push_back(hour.median_ack_ms);
    }
    EXPECT_EQ(summary.Metric("hour")->trace, hours) << i;
    EXPECT_EQ(summary.Metric("median_ack_ms")->trace, ack_ms) << i;
  }
}

}  // namespace
}  // namespace quicer::scan
