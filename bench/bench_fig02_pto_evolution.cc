// Fig 2 — Calculated evolution of the Probe Timeout (PTO) assuming all
// subsequent packets arrive exactly after one RTT; the instant ACK is
// delivered Δt = 4 ms earlier. Paper: the instant ACK improves the PTO by
// 3 x Δt and the WFC curve converges within ~50 new-ACK packets.
//
// Sweep mapping: RTT is an axis, the repetition index is the new-ACK packet
// number, and the WFC/IACK PTO curves are two kTrace metrics produced by a
// closed-form model runner (no experiments run).
#include "bench_common.h"
#include "core/pto_model.h"
#include "registry.h"

namespace {

using namespace quicer;

constexpr int kAckCount = 50;

}  // namespace

QUICER_BENCH("fig02", "Figure 2: PTO evolution, WFC vs IACK (numerical model)") {
  core::PrintTitle("Figure 2: PTO evolution, WFC vs IACK (numerical model)");

  core::SweepSpec spec;
  spec.name = "fig02";
  spec.base.cert_fetch_delay = sim::Millis(4);
  spec.axes.rtts = {sim::Millis(9), sim::Millis(25)};
  spec.repetitions = kAckCount;
  spec.metrics = {
      {"pto_wfc_ms", core::MetricMode::kTrace, /*exclude_negative=*/false, nullptr},
      {"pto_iack_ms", core::MetricMode::kTrace, /*exclude_negative=*/false, nullptr},
      // Computed from the integer-microsecond durations, not the ms traces:
      // the difference of the rounded doubles can land one ulp off.
      {"reduction_ms", core::MetricMode::kTrace, /*exclude_negative=*/false, nullptr}};
  spec.runner = [](const core::SweepRunContext& run) {
    const auto points = core::ComputePtoEvolution(run.point.config.rtt,
                                                  run.point.config.cert_fetch_delay, kAckCount);
    const auto& point = points[static_cast<std::size_t>(run.repetition)];
    return std::vector<double>{sim::ToMillis(point.pto_wfc), sim::ToMillis(point.pto_iack),
                               sim::ToMillis(point.pto_wfc - point.pto_iack)};
  };
  const auto result = bench::Run(spec, ctx);
  if (!result) return 0;

  for (const core::PointSummary& summary : result->points) {
    const sim::Duration delta = summary.point.config.cert_fetch_delay;
    core::PrintHeading("Client-Frontend RTT " + core::FormatMs(summary.point.config.rtt) +
                       " ms, delta_t " + core::FormatMs(delta) + " ms");
    const std::vector<double>& wfc = summary.Metric("pto_wfc_ms")->trace;
    const std::vector<double>& iack = summary.Metric("pto_iack_ms")->trace;
    const std::vector<double>& reduction = summary.Metric("reduction_ms")->trace;
    std::printf("%6s  %12s  %12s  %14s\n", "ack#", "PTO WFC [ms]", "PTO IACK [ms]",
                "reduction [ms]");
    for (int ack = 0; ack < kAckCount; ++ack) {
      if (ack > 10 && ack % 5 != 0) continue;  // readable subsample
      const std::size_t i = static_cast<std::size_t>(ack);
      std::printf("%6d  %12.2f  %12.2f  %14.2f\n", ack, wfc[i], iack[i], reduction[i]);
    }
    std::printf("first-PTO improvement: %.2f ms (expected 3 x delta_t = %.2f ms)\n",
                reduction.front(), 3 * sim::ToMillis(delta));
  }
  return 0;
}
