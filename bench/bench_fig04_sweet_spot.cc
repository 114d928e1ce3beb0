// Fig 4 — First PTO improvement according to RFC 9002: the reduction in
// units of the RTT for Δt in {1, 9, 25} ms across client-frontend RTTs, and
// the spurious-retransmission boundary (Δt > client PTO = 3 x RTT).
//
// Sweep mapping: RTT and Δt are axes; a closed-form model runner evaluates
// FirstPtoReduction per point (no experiments run). The zone-boundary table
// registers as its own bench (fig04_zone); `bench_suite --filter=fig04`
// selects both (and fig04b).
#include "bench_common.h"
#include "core/pto_model.h"
#include "registry.h"

QUICER_BENCH("fig04", "Figure 4: first-PTO reduction and spurious-retransmit zone (model)") {
  using namespace quicer;
  core::PrintTitle("Figure 4: first-PTO reduction [RTT] and spurious-retransmit zone");

  core::SweepSpec spec;
  spec.name = "fig04";
  for (int rtt_ms = 1; rtt_ms <= 100; rtt_ms += (rtt_ms < 10 ? 1 : 5)) {
    spec.axes.rtts.push_back(sim::Millis(static_cast<double>(rtt_ms)));
  }
  spec.axes.cert_fetch_delays = {sim::Millis(1), sim::Millis(9), sim::Millis(25)};
  spec.repetitions = 1;
  spec.metrics = {
      {"reduction_rtts", core::MetricMode::kSummary, /*exclude_negative=*/false, nullptr},
      {"spurious", core::MetricMode::kSummary, /*exclude_negative=*/false, nullptr}};
  spec.runner = [](const core::SweepRunContext& run) {
    const core::SweetSpotPoint point = core::FirstPtoReduction(
        run.point.config.rtt, run.point.config.cert_fetch_delay);
    return std::vector<double>{point.reduction_rtts,
                               point.spurious_retransmissions ? 1.0 : 0.0};
  };
  bench::TuneObserver(spec, ctx);
  const core::SweepResult result = core::RunSweep(spec);
  if (bench::PartialExported(result)) return 0;

  // Rows/columns come from the spec's own axes — one source of truth with
  // the enumerated grid.
  std::printf("%10s", "RTT [ms]");
  for (sim::Duration delta : spec.axes.cert_fetch_delays) {
    std::printf("  %14s%2.0fms", "reduction d=", sim::ToMillis(delta));
  }
  std::printf("  %s\n", "spurious (d=25ms)");

  for (sim::Duration rtt : spec.axes.rtts) {
    std::printf("%10.0f", sim::ToMillis(rtt));
    bool spurious25 = false;
    for (sim::Duration delta : spec.axes.cert_fetch_delays) {
      const core::PointSummary* cell = result.Find([&](const core::SweepPoint& p) {
        return p.config.rtt == rtt && p.config.cert_fetch_delay == delta;
      });
      if (cell == nullptr) {
        std::printf("  %18s", "-");
        continue;
      }
      std::printf("  %18.3f", cell->Metric("reduction_rtts")->summary.mean());
      if (sim::ToMillis(delta) == 25.0) {
        spurious25 = cell->Metric("spurious")->summary.mean() > 0.0;
      }
    }
    std::printf("  %s\n", spurious25 ? "yes" : "no");
  }
  core::MaybeWriteSweepData(result);
  return 0;
}

QUICER_BENCH("fig04_zone", "Figure 4: largest spurious-free delta_t per RTT (model)") {
  using namespace quicer;

  core::SweepSpec spec;
  spec.name = "fig04_zone";
  spec.axes.rtts = {sim::Millis(1),  sim::Millis(5),  sim::Millis(9),
                    sim::Millis(25), sim::Millis(50), sim::Millis(100)};
  spec.repetitions = 1;
  spec.metrics = {
      {"boundary_ms", core::MetricMode::kSummary, /*exclude_negative=*/false, nullptr}};
  spec.runner = [](const core::SweepRunContext& run) {
    return std::vector<double>{sim::ToMillis(core::SpuriousBoundary(run.point.config.rtt))};
  };
  bench::TuneObserver(spec, ctx);
  const core::SweepResult result = core::RunSweep(spec);
  if (bench::PartialExported(result)) return 0;

  core::PrintHeading("Zone boundary: largest spurious-free delta_t per RTT (3 x RTT)");
  for (const core::PointSummary& summary : result.points) {
    std::printf("  RTT %4.0f ms -> delta_t <= %s ms\n", summary.point.rtt_ms,
                core::FormatDouble(summary.primary().summary.mean(), 1).c_str());
  }
  std::printf("\nShape check: reduction = 3*delta/RTT (hyperbolic per delta); lower-latency\n"
              "connections profit more, matching the paper's sweet-spot analysis.\n");
  core::MaybeWriteSweepData(result);
  return 0;
}
