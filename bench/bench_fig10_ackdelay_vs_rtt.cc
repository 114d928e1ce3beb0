// Fig 10 — Difference between the client-frontend RTT and the reported ACK
// Delay field, per CDN, separately for coalesced ACK+SH and separate IACKs.
//
// Paper shape: coalesced ACK+SH overwhelmingly carry an acknowledgment delay
// close to or exceeding the RTT (99.8 % within 1 ms of it); separate IACKs
// exceed the RTT for most CDNs except Akamai and Others, where 61 % / 79 %
// stay below — only those allow correct client-side RTT adjustment.
//
// Sweep mapping: CDN is an extra axis; both response classes are kTrace
// metrics of one probe sweep (NaN skips the class the probe did not hit —
// exclude_negative stays off because RTT - ACK Delay is legitimately
// negative, the paper's "delay exceeds RTT" signal).
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "core/report.h"
#include "registry.h"
#include "scan/sweep_runners.h"
#include "stats/stats.h"

namespace {

using namespace quicer;

void Report(const core::SweepResult& result, const char* metric, const char* label) {
  core::PrintHeading(label);
  std::printf("%12s  %8s  %12s  %12s  %18s\n", "CDN", "n", "median[ms]", "p90 [ms]",
              "share delay>RTT [%]");
  for (const core::PointSummary& summary : result.points) {
    const std::vector<double>& values = summary.Metric(metric)->trace;
    if (values.size() < 5) continue;
    int exceeds = 0;
    for (double diff : values) {
      if (diff < 0) ++exceeds;  // diff = RTT - ack_delay < 0 -> delay exceeds RTT
    }
    std::printf("%12s  %8zu  %12.2f  %12.2f  %18.1f\n",
                summary.point.Extra("cdn")->label.c_str(), values.size(),
                stats::Median(values), stats::Percentile(values, 90),
                100.0 * exceeds / static_cast<double>(values.size()));
  }
}

}  // namespace

QUICER_BENCH("fig10", "Figure 10: RTT minus reported ACK Delay, coalesced vs instant ACK") {
  core::PrintTitle("Figure 10: RTT minus reported ACK Delay, coalesced vs instant ACK");

  auto population = std::make_shared<const scan::TrancoPopulation>(100000, 2024);

  core::SweepSpec spec;
  spec.name = "fig10";
  spec.axes.extras = {
      scan::CdnAxis({scan::kAllCdns.begin(), scan::kAllCdns.end()})};
  spec.repetitions = static_cast<int>(population->size());
  auto trace = [](const char* name) {
    return core::MetricSpec{name, core::MetricMode::kTrace, /*exclude_negative=*/false,
                            nullptr};
  };
  spec.metrics = {trace("rtt_minus_ackdelay_coalesced"), trace("rtt_minus_ackdelay_iack")};
  spec.runner = scan::ProbeRunner(
      population, /*prober_seed=*/17, scan::MatchPointCdn(),
      {[](const core::SweepPoint&, const scan::Domain&, const scan::ProbeResult& result) {
         if (!result.success || !result.coalesced) return core::NoSample();
         return result.rtt_ms - result.reported_ack_delay_ms;
       },
       [](const core::SweepPoint&, const scan::Domain&, const scan::ProbeResult& result) {
         if (!result.success || !result.iack_observed) return core::NoSample();
         return result.rtt_ms - result.reported_ack_delay_ms;
       }});
  bench::TuneObserver(spec, ctx);
  const core::SweepResult result = core::RunSweep(spec);
  if (bench::PartialExported(result)) return 0;

  Report(result, "rtt_minus_ackdelay_coalesced", "(a) Coalesced ACK+SH");
  Report(result, "rtt_minus_ackdelay_iack", "(b) Separate instant ACK");
  std::printf("\nShape check: coalesced responses hug/exceed the RTT; only Akamai and\n"
              "Others' IACKs predominantly stay below it.\n");
  core::MaybeWriteSweepData(result);
  return 0;
}
