#include "scan/sweep_runners.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <vector>

#include "core/sweep.h"
#include "obs/telemetry.h"

// Allocations made by the calling thread inside an AllocationScope. The
// global operator new/delete replacements below affect every allocation in
// this test binary.
namespace {

thread_local std::size_t t_alloc_count = 0;
thread_local bool t_counting = false;

struct AllocationScope {
  AllocationScope() {
    t_alloc_count = 0;
    t_counting = true;
  }
  ~AllocationScope() { t_counting = false; }
  std::size_t count() const { return t_alloc_count; }
};

}  // namespace

void* operator new(std::size_t size) {
  if (t_counting) ++t_alloc_count;
  if (void* ptr = std::malloc(size)) return ptr;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (t_counting) ++t_alloc_count;
  return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
// GCC sees the malloc behind operator new once both are inlined into one
// caller and would flag the matching free.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, const std::nothrow_t&) noexcept { std::free(ptr); }
void operator delete[](void* ptr, const std::nothrow_t&) noexcept { std::free(ptr); }
#pragma GCC diagnostic pop

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
// `extra_skipped` repetitions past the population add "no sample"s.
void ExpectMatchesReferenceLoop(const core::SweepResult& result,
                                std::size_t extra_skipped = 0) {
  const Prober prober(kProberSeed);
  const std::vector<ProbeMetricFn> metrics = Metrics();
  const auto& domains = Population()->domains();
  for (const core::PointSummary& summary : result.points) {
    const core::SweepPoint& point = summary.point;
    const std::optional<Cdn> cdn = PointCdn(point);
    ASSERT_EQ(summary.metrics.size(), metrics.size());
    for (std::size_t m = 0; m < metrics.size(); ++m) {
      std::vector<double> trace;
      std::size_t skipped = extra_skipped;
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

// The runner wrapped as a per-repetition callable: RunSweep then drives it
// one repetition at a time through its one-repetition view.
core::SweepRunner PerRepetition(const core::SweepRunner& inner) {
  return [inner](const core::SweepRunContext& c) { return inner(c); };
}

// Block-native and per-repetition runs of the same runner export the same
// bytes, whatever the block layout: block sizes that vary with the
// parallelism, a window that starts and ends inside a block, a shard, and
// repetitions past the population.
TEST(ProbeRunner, BlockAndPerRepetitionRunsAgree) {
  core::SweepSpec block = ScanSpec(/*cdn_axis=*/true);
  core::SweepSpec per_repetition = block;
  per_repetition.runner = PerRepetition(block.runner);
  auto expect_agree = [&](unsigned cap, const char* what) {
    EXPECT_EQ(core::SweepResultJson(core::RunSweep(block, cap)),
              core::SweepResultJson(core::RunSweep(per_repetition, cap)))
        << what << " at max_parallelism " << cap;
  };
  for (unsigned cap : {1u, 4u, 7u}) expect_agree(cap, "whole run");

  for (core::SweepSpec* spec : {&block, &per_repetition}) {
    spec->shard.rep_begin = 1'001;
    spec->shard.rep_end = 13'337;
  }
  expect_agree(4, "unaligned window");

  for (std::size_t index : {0u, 1u}) {
    for (core::SweepSpec* spec : {&block, &per_repetition}) {
      spec->shard = {};
      spec->shard.index = index;
      spec->shard.count = 2;
    }
    expect_agree(4, index == 0 ? "shard 0/2" : "shard 1/2");
  }

  for (core::SweepSpec* spec : {&block, &per_repetition}) {
    spec->shard = {};
    spec->repetitions = static_cast<int>(kDomains) + 1'500;
  }
  expect_agree(4, "repetitions past the population");
  const core::SweepResult past_end = core::RunSweep(block, 4);
  ExpectMatchesReferenceLoop(past_end, /*extra_skipped=*/1'500);
}

// Every block's filtered ranks keep their "no sample" slots and its probed
// ranks get their values, and a filtered rank allocates nothing: neither
// inside a block nor through the one-repetition view (an empty vector), nor
// past the population.
TEST(ProbeRunner, FilteredRepetitionsAllocateNothing) {
  core::SweepSpec spec = ScanSpec(/*cdn_axis=*/true);
  const core::SweepRunner inner = spec.runner;
  const auto& domains = Population()->domains();
  std::atomic<std::size_t> skips{0};
  std::atomic<std::size_t> probes{0};
  std::atomic<std::size_t> bad{0};
  spec.runner = core::SweepRunner(
      [&](const core::SweepBlock& block) {
        inner.RunBlock(block);
        const Cdn cdn = *PointCdn(block.point);
        for (std::size_t i = 0; i < block.count; ++i) {
          const double* row = block.Row(i);
          if (domains[block.first + i].cdn == cdn) {
            ++probes;
          } else {
            ++skips;
            if (!std::isnan(row[0]) || !std::isnan(row[1])) ++bad;
          }
        }
      },
      nullptr);
  const core::SweepResult result = core::RunSweep(spec, 4);
  EXPECT_EQ(bad.load(), 0u);
  EXPECT_EQ(skips.load() + probes.load(), result.points.size() * kDomains);
  EXPECT_GT(skips.load(), probes.load());
  ExpectMatchesReferenceLoop(result);

  // One point's ranks, cut into runs of filtered ranks: each run is one
  // block, which must not allocate.
  const std::vector<core::SweepPoint> points = core::Enumerate(spec);
  const core::SweepPoint& point = points.front();
  const Cdn cdn = *PointCdn(point);
  core::PointMemo memo;
  std::vector<double> slots(2 * kDomains, core::NoSample());
  auto block_of = [&](std::size_t first, std::size_t count) {
    return core::SweepBlock{point, memo, first, count, 0, 0, slots.data(), 2};
  };
  inner.RunBlock(block_of(0, 1));  // resolves the point's plan into the memo
  std::size_t filtered_blocks = 0;
  std::size_t allocations = 0;
  for (std::size_t first = 0; first < kDomains;) {
    std::size_t end = first;
    while (end < kDomains && domains[end].cdn != cdn) ++end;
    if (end > first) {
      const AllocationScope scope;
      inner.RunBlock(block_of(first, end - first));
      allocations += scope.count();
      ++filtered_blocks;
    }
    first = end + 1;
  }
  EXPECT_GT(filtered_blocks, 100u);
  EXPECT_EQ(allocations, 0u);
  for (std::size_t rank = 0; rank < kDomains; ++rank) {
    if (domains[rank].cdn != cdn) {
      EXPECT_TRUE(std::isnan(slots[2 * rank]) && std::isnan(slots[2 * rank + 1])) << rank;
    }
  }

  for (int repetition : {static_cast<int>(kDomains), static_cast<int>(kDomains) + 7}) {
    const core::SweepRunContext past_end{point, repetition, 0, memo};
    EXPECT_EQ(inner(past_end).capacity(), 0u);
  }
  std::size_t rank = 0;
  while (domains[rank].cdn == cdn) ++rank;
  const core::SweepRunContext filtered{point, static_cast<int>(rank), 0, memo};
  EXPECT_EQ(inner(filtered).capacity(), 0u);
  while (domains[rank].cdn != cdn) ++rank;
  const core::SweepRunContext probed{point, static_cast<int>(rank), 0, memo};
  EXPECT_EQ(inner(probed).size(), 2u);
}

// The scan.probe_runner.* counters count every probe and every filtered
// repetition once, whatever the thread count or runner path.
TEST(ProbeRunner, TelemetryCountsProbesAndFilteredRepetitions) {
  obs::EnableProcess();
  core::SweepSpec spec = ScanSpec(/*cdn_axis=*/true);
  std::uint64_t expected_probes = 0;
  for (const core::SweepPoint& point : core::Enumerate(spec)) {
    for (const Domain& domain : Population()->domains()) {
      if (domain.cdn == *PointCdn(point)) ++expected_probes;
    }
  }
  const core::SweepRunner block = spec.runner;
  for (const core::SweepRunner& runner : {block, PerRepetition(block)}) {
    spec.runner = runner;
    for (unsigned cap : {1u, 4u}) {
      const core::SweepResult result = core::RunSweep(spec, cap);
      ASSERT_TRUE(result.telemetry.enabled);
      const obs::SweepRecord record = core::TelemetryRecordOf(result, "");
      EXPECT_EQ(obs::RecordCounter(record, "scan.probe_runner.probes"), expected_probes) << cap;
      EXPECT_EQ(obs::RecordCounter(record, "scan.probe_runner.filtered"),
                result.points.size() * kDomains - expected_probes)
          << cap;
    }
  }
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
