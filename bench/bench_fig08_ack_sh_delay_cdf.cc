// Fig 8 — CDF of the delay between the first ACK and the subsequent
// ServerHello per CDN, measured from São Paulo. Coalesced ACK+SH counts as
// zero delay.
//
// Paper shape: Cloudflare's median ~3.2 ms, Amazon ~6.4 ms, Akamai ~20.9 ms
// (significantly slower), Google ~30.3 ms.
//
// Sweep mapping: CDN is an extra axis, repetition r probes the r-th domain
// of the Tranco population (scan::ProbeRunner), and the per-CDN delay vector
// is a kTrace metric — retained in population rank order, exactly the
// vector the legacy per-domain loop collected, feeding the CDF.
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "core/report.h"
#include "registry.h"
#include "scan/sweep_runners.h"
#include "stats/stats.h"

QUICER_BENCH("fig08", "Figure 8: ACK->ServerHello delay CDF per CDN (Sao Paulo)") {
  using namespace quicer;
  core::PrintTitle("Figure 8: delay between first ACK and ServerHello (Sao Paulo)");

  auto population = std::make_shared<const scan::TrancoPopulation>(300000, 2024);

  core::SweepSpec spec;
  spec.name = "fig08";
  spec.axes.extras = {scan::CdnAxis({scan::Cdn::kAkamai, scan::Cdn::kAmazon,
                                     scan::Cdn::kCloudflare, scan::Cdn::kGoogle,
                                     scan::Cdn::kOthers})};
  spec.repetitions = static_cast<int>(population->size());
  spec.metrics = {
      {"ack_sh_delay_ms", core::MetricMode::kTrace, /*exclude_negative=*/false, nullptr}};
  spec.runner = scan::ProbeRunner(
      population, /*prober_seed=*/11, scan::MatchPointCdn(),
      {[](const core::SweepPoint&, const scan::Domain&, const scan::ProbeResult& result) {
        if (!result.success || (!result.iack_observed && !result.coalesced)) {
          return core::NoSample();
        }
        return result.ack_sh_delay_ms;
      }});
  const auto result = bench::Run(spec, ctx);
  if (!result) return 0;

  for (const core::PointSummary& summary : result->points) {
    const std::vector<double>& delays = summary.primary().trace;
    if (delays.empty()) continue;
    // Median over IACK (non-coalesced) responses only, like the paper's
    // "IACKs arrive X ms earlier than the ServerHellos".
    std::vector<double> separate;
    for (double d : delays) {
      if (d > 0) separate.push_back(d);
    }
    core::PrintHeading(summary.point.Extra("cdn")->label + "  (n=" +
                       std::to_string(delays.size()) + ", median separate delay " +
                       core::FormatDouble(stats::Median(separate), 1) + " ms)");
    const stats::Cdf cdf(delays);
    std::printf("%12s  %8s\n", "delay [ms]", "CDF");
    for (const auto& [x, p] : cdf.SampleLogX(0.001, 1000.0, 13)) {
      std::printf("%12.3f  %8.3f\n", x, p);
    }
  }
  std::printf("\nShape check: Akamai clearly slower than the other CDNs to deliver the SH;\n"
              "Cloudflare fastest (median ~3 ms).\n");
  return 0;
}
