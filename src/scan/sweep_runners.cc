#include "scan/sweep_runners.h"

#include <algorithm>
#include <utility>

#include "obs/telemetry.h"

namespace quicer::scan {

core::SweepExtraAxis VantageAxis(const std::vector<Vantage>& vantages) {
  core::SweepExtraAxis axis;
  axis.name = "vantage";
  axis.values.reserve(vantages.size());
  for (Vantage vantage : vantages) {
    axis.values.push_back(
        {std::string(Name(vantage)), static_cast<std::int64_t>(vantage)});
  }
  return axis;
}

core::SweepExtraAxis CdnAxis(const std::vector<Cdn>& cdns) {
  core::SweepExtraAxis axis;
  axis.name = "cdn";
  axis.values.reserve(cdns.size());
  for (Cdn cdn : cdns) {
    axis.values.push_back({std::string(Name(cdn)), static_cast<std::int64_t>(cdn)});
  }
  return axis;
}

core::SweepExtraAxis DayAxis(int days) {
  core::SweepExtraAxis axis;
  axis.name = "day";
  axis.values.reserve(static_cast<std::size_t>(days > 0 ? days : 0));
  for (int day = 0; day < days; ++day) {
    axis.values.push_back({std::to_string(day), day});
  }
  return axis;
}

Vantage PointVantage(const core::SweepPoint& point, Vantage fallback) {
  const core::SweepAxisValue* value = point.Extra("vantage");
  return value != nullptr ? static_cast<Vantage>(value->value) : fallback;
}

std::optional<Cdn> PointCdn(const core::SweepPoint& point) {
  const core::SweepAxisValue* value = point.Extra("cdn");
  if (value == nullptr) return std::nullopt;
  return static_cast<Cdn>(value->value);
}

std::uint64_t PointDay(const core::SweepPoint& point) {
  const core::SweepAxisValue* value = point.Extra("day");
  return value != nullptr ? static_cast<std::uint64_t>(value->value) : 0;
}

ProbeFilter MatchPointCdn() { return PointCdn; }

namespace {

/// scan::ProbeRunner's state and its one probe body, shared by the block
/// runner and its one-repetition view.
class ProbeBody {
 public:
  ProbeBody(std::shared_ptr<const TrancoPopulation> population, std::uint64_t prober_seed,
            ProbeFilter filter, std::vector<ProbeMetricFn> metrics)
      : population_(std::move(population)),
        prober_(prober_seed),
        filter_(std::move(filter)),
        metrics_(std::move(metrics)) {}

  std::size_t metric_count() const { return metrics_.size(); }

  /// Probes ranks [first, first + count) of `point` (ranks past the
  /// population probe nothing). For each probed rank, `row(rank - first)`
  /// returns where the values of its first `width` metrics go (extractors
  /// past `width` have no slot and are not called); a filtered rank costs
  /// one CDN compare and touches no row.
  template <typename Row>
  void Run(const core::SweepPoint& point, core::PointMemo& memo, std::size_t first,
           std::size_t count, std::size_t width, Row&& row) const {
    const std::vector<Domain>& domains = population_->domains();
    const std::size_t end = std::min(first + count, domains.size());
    if (first >= end) return;
    const Plan& plan = memo.Get([&] {
      return Plan{filter_ ? filter_(point) : std::nullopt, PointVantage(point), PointDay(point)};
    });
    const std::size_t n = std::min(width, metrics_.size());
    std::uint64_t probes = 0;
    for (std::size_t rank = first; rank < end; ++rank) {
      const Domain& domain = domains[rank];
      if (plan.cdn.has_value() && domain.cdn != *plan.cdn) continue;
      ++probes;
      const ProbeResult result = prober_.Probe(domain, plan.vantage, plan.day);
      double* values = row(rank - first);
      for (std::size_t m = 0; m < n; ++m) {
        values[m] = metrics_[m](point, domain, result);
      }
    }
    obs::Count(obs::kScanProbeRunnerProbes, probes);
    obs::Count(obs::kScanProbeRunnerFiltered, end - first - probes);
  }

 private:
  // What a point's repetitions share, resolved from its extras once.
  struct Plan {
    std::optional<Cdn> cdn;  // admitted CDN; nullopt admits every domain
    Vantage vantage = Vantage::kSaoPaulo;
    std::uint64_t day = 0;
  };

  std::shared_ptr<const TrancoPopulation> population_;
  Prober prober_;
  ProbeFilter filter_;
  std::vector<ProbeMetricFn> metrics_;
};

}  // namespace

core::SweepRunner ProbeRunner(std::shared_ptr<const TrancoPopulation> population,
                              std::uint64_t prober_seed, ProbeFilter filter,
                              std::vector<ProbeMetricFn> metrics) {
  const auto body = std::make_shared<const ProbeBody>(std::move(population), prober_seed,
                                                      std::move(filter), std::move(metrics));
  return core::SweepRunner(
      [body](const core::SweepBlock& block) {
        // The slots arrive as "no sample", so a filtered rank writes nothing.
        body->Run(block.point, block.memo, block.first, block.count, block.width,
                  [&block](std::size_t i) { return block.Row(i); });
      },
      [body](const core::SweepRunContext& ctx) {
        // A rank that probes nothing returns an empty vector ("no sample"
        // for every metric), which allocates nothing.
        std::vector<double> values;
        const std::size_t width = body->metric_count();
        body->Run(ctx.point, ctx.memo, static_cast<std::size_t>(ctx.repetition), 1, width,
                  [&values, width](std::size_t) {
                    values.resize(width);
                    return values.data();
                  });
        return values;
      });
}

core::SweepRunner StudyRunner(
    std::function<CloudflareStudyConfig(const core::SweepPoint&)> make_config,
    std::vector<StudyMetricFn> metrics) {
  return [make_config = std::move(make_config),
          metrics = std::move(metrics)](const core::SweepRunContext& ctx) {
    const StudyOutcome& outcome = ctx.memo.Get([&] {
      StudyOutcome study;
      study.points = RunCloudflareStudy(make_config(ctx.point));
      study.summary = SummarizeStudy(study.points);
      return study;
    });
    std::vector<double> values;
    values.reserve(metrics.size());
    for (const StudyMetricFn& metric : metrics) {
      values.push_back(metric(outcome, ctx));
    }
    return values;
  };
}

}  // namespace quicer::scan
