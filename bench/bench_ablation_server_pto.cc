// §5 tuning ablation — the server's default PTO trade-off: "When an instant
// ACK was received successfully but the ServerHello and additional packets
// of the handshake are lost, the server has to wait until its default PTO
// expires. Lowering this value is a trade-off between faster recovery from
// packet loss and inducing spurious retransmissions."
//
// Sweeps the server default PTO in the Fig 6 scenario (first-server-flight
// tail lost, IACK) and in the lossless case, reporting recovery time and
// spurious retransmissions.
#include "bench_common.h"
#include "core/loss_scenarios.h"
#include "core/sweep.h"
#include "registry.h"

QUICER_BENCH("ablation_server_pto", "Ablation: server default PTO trade-off") {
  using namespace quicer;
  core::PrintTitle("Ablation: server default PTO trade-off (IACK, 9 ms RTT)");

  const double kPtos[] = {25.0, 50.0, 100.0, 200.0, 400.0, 999.0};

  core::SweepSpec spec;
  spec.name = "ablation_server_pto";
  spec.base.client = clients::ClientImpl::kQuicGo;
  spec.base.behavior = quic::ServerBehavior::kInstantAck;
  spec.base.rtt = sim::Millis(9);
  spec.base.response_body_bytes = http::kSmallFileBytes;
  for (double pto_ms : kPtos) {
    char label[32];
    std::snprintf(label, sizeof(label), "pto=%.0f", pto_ms);
    spec.axes.variants.push_back(
        {label, [pto_ms](core::ExperimentConfig& c) { c.server_default_pto = sim::Millis(pto_ms); }});
  }
  spec.axes.losses = {{"first-server-flight-tail",
                       [](const core::ExperimentConfig& c) {
                         return core::FirstServerFlightTailLoss(quic::ServerBehavior::kInstantAck,
                                                                c.certificate_bytes, c.http);
                       }},
                      {"none", nullptr}};
  spec.repetitions = bench::kRepetitions;
  bench::Tune(spec, ctx);
  const core::SweepResult ttfb = core::RunSweep(spec);

  core::SweepSpec spurious_spec = spec;
  spurious_spec.name = "ablation_server_pto_spurious";
  // Raw counts, negatives included: the legacy loops aggregated raw values.
  spurious_spec.metrics = {
      {"spurious_retransmits", core::MetricMode::kSummary, /*exclude_negative=*/false,
       [](const core::ExperimentResult& r) {
         return static_cast<double>(r.client.spurious_retransmits +
                                    r.server.spurious_retransmits);
       }}};
  const core::SweepResult spurious = core::RunSweep(spurious_spec);
  if (bench::AnyPartialExported({&ttfb, &spurious})) return 0;

  std::printf("%16s  %22s  %22s  %10s\n", "server PTO [ms]", "TTFB, flight lost [ms]",
              "TTFB, no loss [ms]", "spurious");
  for (double pto_ms : kPtos) {
    char label[32];
    std::snprintf(label, sizeof(label), "pto=%.0f", pto_ms);
    auto cell = [&](const core::SweepResult& result, const char* loss) {
      return result.Find([&](const core::SweepPoint& p) {
        return p.variant == label && p.loss == loss;
      });
    };
    std::printf("%16.0f  %22.1f  %22.1f  %10.0f\n", pto_ms,
                cell(ttfb, "first-server-flight-tail")->MedianOrNegative(),
                cell(ttfb, "none")->MedianOrNegative(),
                cell(spurious, "first-server-flight-tail")->values().Median() +
                    cell(spurious, "none")->values().Median());
  }
  std::printf("\nShape check: lowering the default PTO speeds up recovery roughly linearly\n"
              "(the Fig 6 penalty tracks the default PTO) until it under-runs the true RTT\n"
              "and spurious retransmissions appear.\n");
  core::MaybeWriteSweepData(ttfb);
  core::MaybeWriteSweepData(spurious);
  return 0;
}
