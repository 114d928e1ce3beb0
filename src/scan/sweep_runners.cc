#include "scan/sweep_runners.h"

#include <utility>

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

core::SweepRunner ProbeRunner(std::shared_ptr<const TrancoPopulation> population,
                              std::uint64_t prober_seed, ProbeFilter filter,
                              std::vector<ProbeMetricFn> metrics) {
  // What a point's repetitions share, resolved from its extras once.
  struct Plan {
    std::optional<Cdn> cdn;  // admitted CDN; nullopt admits every domain
    Vantage vantage = Vantage::kSaoPaulo;
    std::uint64_t day = 0;
  };
  return [population = std::move(population), prober = Prober(prober_seed),
          filter = std::move(filter),
          metrics = std::move(metrics)](const core::SweepRunContext& ctx) {
    // A repetition that probes nothing returns no values, which the sweep
    // reads as "no sample" for every metric, and allocates nothing.
    const auto& domains = population->domains();
    const std::size_t index = static_cast<std::size_t>(ctx.repetition);
    if (index >= domains.size()) return std::vector<double>();
    const Plan& plan = ctx.memo.Get([&] {
      return Plan{filter ? filter(ctx.point) : std::nullopt, PointVantage(ctx.point),
                  PointDay(ctx.point)};
    });
    const Domain& domain = domains[index];
    if (plan.cdn.has_value() && domain.cdn != *plan.cdn) return std::vector<double>();

    const ProbeResult result = prober.Probe(domain, plan.vantage, plan.day);
    std::vector<double> values(metrics.size());
    for (std::size_t m = 0; m < metrics.size(); ++m) {
      values[m] = metrics[m](ctx.point, domain, result);
    }
    return values;
  };
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
