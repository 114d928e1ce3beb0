// Fig 15 — The Fig 9 study repeated from all four vantage points (Hamburg,
// Hong Kong, Los Angeles, São Paulo).
//
// Paper shape: at every location the coalesced ACK+SH is faster than the
// separate ServerHello; the instant ACK precedes the SH by ~2.1-2.6 ms.
//
// Sweep mapping: vantage extra axis, one repetition per point, five summary
// metrics read from the memoized per-point study (scan::StudyRunner) — the
// multi-metric spec replaces the legacy per-vantage loop.
#include <cstdio>

#include "bench_common.h"
#include "core/report.h"
#include "registry.h"
#include "scan/sweep_runners.h"

namespace {

using namespace quicer;

scan::StudyMetricFn SummaryField(double scan::StudySummary::*field) {
  return [field](const scan::StudyOutcome& outcome, const core::SweepRunContext&) {
    return outcome.summary.*field;
  };
}

}  // namespace

QUICER_BENCH("fig15", "Figure 15: Cloudflare study from four vantage points") {
  core::PrintTitle("Figure 15: Cloudflare study from four vantage points");

  core::SweepSpec spec;
  spec.name = "fig15";
  spec.axes.extras = {
      scan::VantageAxis({scan::kAllVantages.begin(), scan::kAllVantages.end()})};
  spec.repetitions = 1;
  auto summary_metric = [](const char* name) {
    return core::MetricSpec{name, core::MetricMode::kSummary, /*exclude_negative=*/false,
                            nullptr};
  };
  spec.metrics = {summary_metric("median_ack_ms"), summary_metric("median_sh_ms"),
                  summary_metric("median_gap_ms"), summary_metric("coalesced_share"),
                  summary_metric("avoided_pto_inflation_ms")};
  spec.runner = scan::StudyRunner(
      [](const core::SweepPoint& point) {
        scan::CloudflareStudyConfig config;
        config.vantage = scan::PointVantage(point);
        config.hours = 72;  // three days per vantage keeps the bench fast
        config.samples_per_hour = 6;
        config.seed = 42 + static_cast<std::uint64_t>(config.vantage);
        return config;
      },
      {SummaryField(&scan::StudySummary::median_ack_ms),
       SummaryField(&scan::StudySummary::median_sh_ms),
       SummaryField(&scan::StudySummary::median_gap_ms),
       SummaryField(&scan::StudySummary::coalesced_share),
       SummaryField(&scan::StudySummary::avoided_pto_inflation_ms)});
  const auto result = bench::Run(spec, ctx);
  if (!result) return 0;

  std::printf("%16s  %10s  %10s  %10s  %12s  %10s\n", "vantage", "ACK [ms]", "SH [ms]",
              "gap [ms]", "coal. [%]", "3x gap[ms]");
  for (const core::PointSummary& summary : result->points) {
    std::printf("%16s  %10.2f  %10.2f  %10.2f  %12.1f  %10.2f\n",
                summary.point.Extra("vantage")->label.c_str(),
                summary.Metric("median_ack_ms")->summary.mean(),
                summary.Metric("median_sh_ms")->summary.mean(),
                summary.Metric("median_gap_ms")->summary.mean(),
                summary.Metric("coalesced_share")->summary.mean() * 100.0,
                summary.Metric("avoided_pto_inflation_ms")->summary.mean());
  }
  std::printf("\nShape check: consistent ACK->SH gap of a few ms at all locations\n"
              "(paper: 2.1 ms Sao Paulo/Hamburg, 2.4 ms LA, 2.6 ms Hong Kong).\n");
  return 0;
}
