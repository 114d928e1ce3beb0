// Fig 4, engine edition — the numerical sweet-spot analysis re-measured with
// the full packet-level engine instead of the closed-form model: first-PTO
// reduction (in RTT units) and actual spurious client probes across the
// (RTT, Δt) grid. Cross-validates the bench_fig04 analysis: the measured
// surface must match 3Δt/RTT and the measured spurious zone the Δt > 3·RTT
// boundary (shifted slightly by the server's processing time, which the
// closed-form model does not carry).
#include "bench_common.h"
#include "core/sweep.h"
#include "registry.h"

QUICER_BENCH("fig04b", "Figure 4 (engine-measured): first-PTO reduction surface") {
  using namespace quicer;
  core::PrintTitle("Figure 4 (engine-measured): first-PTO reduction and spurious probes");

  core::SweepSpec spec;
  spec.name = "fig04b";
  spec.base.client = clients::ClientImpl::kNgtcp2;
  spec.base.signing = tls::SigningModel{sim::Millis(1.0), 0.0};
  spec.base.response_body_bytes = 4096;
  spec.base.time_limit = sim::Seconds(60);
  spec.axes.rtts = {sim::Millis(2),  sim::Millis(5),  sim::Millis(9), sim::Millis(15),
                    sim::Millis(25), sim::Millis(50), sim::Millis(100)};
  if (ctx.dense_axes()) {
    spec.axes.rtts.insert(spec.axes.rtts.end(),
                          {sim::Millis(35), sim::Millis(75), sim::Millis(150)});
  }
  spec.axes.cert_fetch_delays = {sim::Millis(1), sim::Millis(9), sim::Millis(25)};
  spec.axes.behaviors = {quic::ServerBehavior::kWaitForCertificate,
                         quic::ServerBehavior::kInstantAck};
  spec.repetitions = 9;
  // Raw values, negatives included: the legacy loops aggregated the
  // first_pto_period sentinel as data.
  spec.metrics = {{"first_pto_ms", core::MetricMode::kSummary, /*exclude_negative=*/false,
                   [](const core::ExperimentResult& r) {
                     return sim::ToMillis(r.client.first_pto_period);
                   }}};
  bench::Scale(spec, ctx);

  core::SweepSpec probes_spec = spec;
  probes_spec.name = "fig04b_probes";
  probes_spec.axes.behaviors = {quic::ServerBehavior::kInstantAck};
  probes_spec.metrics = {{"pto_expirations", core::MetricMode::kSummary,
                          /*exclude_negative=*/false, [](const core::ExperimentResult& r) {
                            return static_cast<double>(r.client.pto_expirations);
                          }}};
  const auto first_pto = bench::Run(spec, ctx);
  const auto probes = bench::Run(probes_spec, ctx);
  if (!first_pto || !probes) return 0;

  std::printf("%10s", "RTT [ms]");
  for (sim::Duration d : spec.axes.cert_fetch_delays) {
    std::printf("   red(d=%4.0f)  spur", sim::ToMillis(d));
  }
  std::printf("\n");
  for (sim::Duration rtt : spec.axes.rtts) {
    const double rtt_ms = sim::ToMillis(rtt);
    std::printf("%10.0f", rtt_ms);
    for (sim::Duration delta : spec.axes.cert_fetch_delays) {
      auto find = [&](const core::SweepResult& result, quic::ServerBehavior behavior) {
        return result.Find([&](const core::SweepPoint& p) {
          return p.config.rtt == rtt && p.config.cert_fetch_delay == delta &&
                 p.config.behavior == behavior;
        });
      };
      const double wfc =
          find(*first_pto, quic::ServerBehavior::kWaitForCertificate)->values().Median();
      const double iack = find(*first_pto, quic::ServerBehavior::kInstantAck)->values().Median();
      const double spurious = find(*probes, quic::ServerBehavior::kInstantAck)->values().Median();
      std::printf("   %10.2f  %4.0f", (wfc - iack) / rtt_ms, spurious);
    }
    std::printf("\n");
  }
  std::printf("\nShape check: the measured reduction tracks the model's 3*(delta+proc)/RTT\n"
              "surface; spurious client probes appear exactly where delta_t exceeds the\n"
              "client PTO (3 x RTT) — the Fig 4 zone boundary, measured live.\n");
  return 0;
}
