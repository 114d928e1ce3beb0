// Fig 14 — CDF of the ACK->ServerHello delay per CDN from all four vantage
// points (Tranco Top-1M probe).
//
// Paper shape: IACK latency distributions are similar across locations;
// Google's IACK-enabled frontends are only significantly reachable from
// São Paulo.
//
// Sweep mapping: vantage × CDN extra axes over one probe sweep; percentiles
// come straight from each point's accumulator (the reservoir is sized to the
// population, so they are exact — identical to stats::Percentile over the
// legacy per-domain vectors).
#include <cstdio>

#include "bench_common.h"
#include "core/report.h"
#include "registry.h"
#include "scan/sweep_runners.h"

QUICER_BENCH("fig14", "Figure 14: ACK->SH delay per CDN from four vantage points") {
  using namespace quicer;
  core::PrintTitle("Figure 14: ACK->SH delay CDF per CDN from four vantage points");

  auto population = std::make_shared<const scan::TrancoPopulation>(50000, 2024);
  const std::vector<scan::Cdn> cdns = {scan::Cdn::kAkamai, scan::Cdn::kAmazon,
                                       scan::Cdn::kCloudflare, scan::Cdn::kGoogle,
                                       scan::Cdn::kOthers};

  core::SweepSpec spec;
  spec.name = "fig14";
  spec.axes.extras = {
      scan::VantageAxis({scan::kAllVantages.begin(), scan::kAllVantages.end()}),
      scan::CdnAxis(cdns)};
  spec.repetitions = static_cast<int>(population->size());
  spec.reservoir_capacity = population->size();  // exact percentiles
  spec.metrics = {
      {"ack_sh_delay_ms", core::MetricMode::kSummary, /*exclude_negative=*/false, nullptr}};
  spec.runner = scan::ProbeRunner(
      population, /*prober_seed=*/13, scan::MatchPointCdn(),
      {[](const core::SweepPoint&, const scan::Domain&, const scan::ProbeResult& result) {
        if (!result.success || !result.iack_observed) return core::NoSample();
        return result.ack_sh_delay_ms;
      }});
  bench::TuneObserver(spec, ctx);
  const core::SweepResult result = core::RunSweep(spec);
  if (bench::PartialExported(result)) return 0;

  for (scan::Vantage vantage : scan::kAllVantages) {
    core::PrintHeading(std::string(scan::Name(vantage)));
    std::printf("%12s  %8s  %10s  %10s  %10s\n", "CDN", "n", "p25 [ms]", "median", "p75 [ms]");
    for (scan::Cdn cdn : cdns) {
      const core::PointSummary* cell = result.Find([&](const core::SweepPoint& p) {
        return scan::PointVantage(p) == vantage && scan::PointCdn(p) == cdn;
      });
      const std::string name(scan::Name(cdn));
      if (cell == nullptr || cell->values().count() < 3) {
        std::printf("%12s  %8s\n", name.c_str(), "(none)");
        continue;
      }
      std::printf("%12s  %8zu  %10.2f  %10.2f  %10.2f\n", name.c_str(),
                  cell->values().count(), cell->values().Percentile(25),
                  cell->values().Median(), cell->values().Percentile(75));
    }
  }
  std::printf("\nShape check: per-CDN medians stable across vantage points.\n");
  core::MaybeWriteSweepData(result);
  return 0;
}
