// Fig 9 — Reception latency of ACK, SH and coalesced ACK+SH from Cloudflare
// in São Paulo over one week (every sample is a real engine handshake).
//
// Paper shape: the instant ACK arrives ~2.1 ms after the ClientHello; the
// separate SH follows a few ms later, with larger gaps during local daytime;
// coalesced ACK+SH (cached certificate) arrives as fast as the instant ACK.
//
// Sweep mapping: one point, repetition index = study hour, and the three
// latency series are kTrace metrics (exclude_negative off: the -1 "no
// samples this hour" sentinel keeps the series hour-aligned). The study
// itself runs once per point (scan::StudyRunner memoizes it); sample counts
// ride along as two more traces so the summary is rebuilt exactly.
#include <cstdio>

#include "bench_common.h"
#include "core/report.h"
#include "registry.h"
#include "scan/sweep_runners.h"

namespace {

using namespace quicer;

scan::StudyMetricFn HourField(double scan::HourlyPoint::*field) {
  return [field](const scan::StudyOutcome& outcome, const core::SweepRunContext& ctx) {
    return outcome.points[static_cast<std::size_t>(ctx.repetition)].*field;
  };
}

scan::StudyMetricFn HourCount(int scan::HourlyPoint::*field) {
  return [field](const scan::StudyOutcome& outcome, const core::SweepRunContext& ctx) {
    return static_cast<double>(outcome.points[static_cast<std::size_t>(ctx.repetition)].*field);
  };
}

}  // namespace

QUICER_BENCH("fig09", "Figure 9: Cloudflare week-long study time series (Sao Paulo)") {
  core::PrintTitle("Figure 9: Cloudflare week-long study, Sao Paulo (engine-backed)");

  scan::CloudflareStudyConfig config;
  config.vantage = scan::Vantage::kSaoPaulo;
  config.hours = 168;
  config.samples_per_hour = 6;
  config.cache_probability = 0.075;

  core::SweepSpec spec;
  spec.name = "fig09";
  spec.repetitions = config.hours;
  auto trace = [](const char* name) {
    return core::MetricSpec{name, core::MetricMode::kTrace, /*exclude_negative=*/false,
                            nullptr};
  };
  spec.metrics = {trace("median_ack_ms"), trace("median_sh_ms"), trace("median_coalesced_ms"),
                  trace("ack_samples"), trace("coalesced_samples")};
  spec.runner = scan::StudyRunner(
      [config](const core::SweepPoint&) { return config; },
      {HourField(&scan::HourlyPoint::median_ack_ms), HourField(&scan::HourlyPoint::median_sh_ms),
       HourField(&scan::HourlyPoint::median_coalesced_ms),
       HourCount(&scan::HourlyPoint::ack_samples),
       HourCount(&scan::HourlyPoint::coalesced_samples)});
  const auto result = bench::Run(spec, ctx);
  if (!result) return 0;
  const core::PointSummary& point = result->points.front();

  std::printf("%6s  %10s  %10s  %14s\n", "hour", "ACK [ms]", "SH [ms]", "ACK,SH coal [ms]");
  for (int hour = 0; hour < config.hours; ++hour) {
    if (hour % 6 != 0) continue;  // readable subsample
    const std::size_t i = static_cast<std::size_t>(hour);
    std::printf("%6d  %10.2f  %10.2f  %14.2f\n", hour,
                point.Metric("median_ack_ms")->trace[i],
                point.Metric("median_sh_ms")->trace[i],
                point.Metric("median_coalesced_ms")->trace[i]);
  }

  // Rebuild the hourly points from the traces; the summary is then exactly
  // the legacy SummarizeStudy over the study's own output.
  std::vector<scan::HourlyPoint> hours(static_cast<std::size_t>(config.hours));
  for (int hour = 0; hour < config.hours; ++hour) {
    const std::size_t i = static_cast<std::size_t>(hour);
    hours[i].hour = hour;
    hours[i].median_ack_ms = point.Metric("median_ack_ms")->trace[i];
    hours[i].median_sh_ms = point.Metric("median_sh_ms")->trace[i];
    hours[i].median_coalesced_ms = point.Metric("median_coalesced_ms")->trace[i];
    hours[i].ack_samples = static_cast<int>(point.Metric("ack_samples")->trace[i]);
    hours[i].coalesced_samples = static_cast<int>(point.Metric("coalesced_samples")->trace[i]);
  }
  const auto summary = scan::SummarizeStudy(hours);
  core::PrintHeading("Summary (paper: IACK ~2.1 ms before SH; avoided PTO inflation 6.3-7.2 ms)");
  std::printf("median ACK since CH:        %6.2f ms\n", summary.median_ack_ms);
  std::printf("median SH since CH:         %6.2f ms\n", summary.median_sh_ms);
  std::printf("median ACK->SH gap:         %6.2f ms\n", summary.median_gap_ms);
  std::printf("avoided PTO inflation (3x): %6.2f ms\n", summary.avoided_pto_inflation_ms);
  std::printf("coalesced share:            %6.1f %%\n", summary.coalesced_share * 100.0);
  std::printf("\nShape check: daytime hours (7-19 local) show larger ACK->SH gaps; coalesced\n"
              "responses track the instant-ACK latency (certificate cached).\n");
  return 0;
}
