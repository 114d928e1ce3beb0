// §5 generalisation ablation — instant ACK across handshake types:
// 1-RTT, 0-RTT (request rides with the ClientHello) and Retry (token round
// trip first; the Retry may seed the client's RTT estimate).
#include "bench_common.h"
#include "core/sweep.h"
#include "registry.h"

QUICER_BENCH("ablation_0rtt_retry", "Ablation: instant ACK under 1-RTT/0-RTT/Retry") {
  using namespace quicer;
  core::PrintTitle("Ablation: instant ACK under 1-RTT, 0-RTT and Retry handshakes");
  std::printf("(9 ms RTT, 10 KB transfer, delta_t = 25 ms)\n\n");

  core::SweepSpec spec;
  spec.name = "ablation_0rtt_retry";
  spec.base.client = clients::ClientImpl::kQuicGo;
  spec.base.rtt = sim::Millis(9);
  spec.base.cert_fetch_delay = sim::Millis(25);
  spec.base.response_body_bytes = http::kSmallFileBytes;
  spec.axes.modes = {core::HandshakeMode::k1Rtt, core::HandshakeMode::k0Rtt,
                     core::HandshakeMode::kRetry};
  spec.axes.behaviors = {quic::ServerBehavior::kWaitForCertificate,
                         quic::ServerBehavior::kInstantAck};
  spec.repetitions = bench::kRepetitions;
  bench::Scale(spec, ctx);

  core::SweepSpec pto_spec = spec;
  pto_spec.name = "ablation_0rtt_retry_pto";
  // Raw values, negatives included: the legacy loops aggregated the sentinel.
  pto_spec.metrics = {{"first_pto_ms", core::MetricMode::kSummary, /*exclude_negative=*/false,
                       [](const core::ExperimentResult& r) {
                         return sim::ToMillis(r.client.first_pto_period);
                       }}};

  // Retry as the client's first RTT estimate, Δt = 100 ms, WFC only: the
  // retry-sample flag is not a first-class axis, so it sweeps as a variant.
  core::SweepSpec retry_spec;
  retry_spec.name = "ablation_retry_rtt_sample";
  retry_spec.base = spec.base;
  retry_spec.base.mode = core::HandshakeMode::kRetry;
  retry_spec.base.behavior = quic::ServerBehavior::kWaitForCertificate;
  retry_spec.base.cert_fetch_delay = sim::Millis(100);
  retry_spec.axes.variants = {
      {"retry-rtt-sample", [](core::ExperimentConfig& c) { c.client_use_retry_rtt_sample = true; }},
      {"no-retry-rtt-sample",
       [](core::ExperimentConfig& c) { c.client_use_retry_rtt_sample = false; }}};
  retry_spec.repetitions = bench::kRepetitions;
  bench::Scale(retry_spec, ctx);
  const auto ttfb = bench::Run(spec, ctx);
  const auto first_pto = bench::Run(pto_spec, ctx);
  const auto retry = bench::Run(retry_spec, ctx);
  if (!ttfb || !first_pto || !retry) return 0;

  std::printf("%10s  %12s  %12s  %16s  %16s\n", "handshake", "WFC TTFB", "IACK TTFB",
              "WFC 1st PTO", "IACK 1st PTO");
  for (core::HandshakeMode mode : spec.axes.modes) {
    auto median = [&](const core::SweepResult& result, quic::ServerBehavior behavior) {
      const core::PointSummary* cell = result.Find([&](const core::SweepPoint& p) {
        return p.config.mode == mode && p.config.behavior == behavior;
      });
      return cell->MedianOrNegative();
    };
    std::printf("%10s  %12.1f  %12.1f  %16.1f  %16.1f\n",
                std::string(core::ToString(mode)).c_str(),
                median(*ttfb, quic::ServerBehavior::kWaitForCertificate),
                median(*ttfb, quic::ServerBehavior::kInstantAck),
                median(*first_pto, quic::ServerBehavior::kWaitForCertificate),
                median(*first_pto, quic::ServerBehavior::kInstantAck));
  }

  core::PrintHeading("Retry as first RTT estimate (delta_t = 100 ms, WFC)");
  auto variant_median = [&](const std::string& label) {
    return retry->Find([&](const core::SweepPoint& p) { return p.variant == label; })
        ->MedianOrNegative();
  };
  std::printf("with Retry RTT sample:    TTFB %7.1f ms\n", variant_median("retry-rtt-sample"));
  std::printf("without Retry RTT sample: TTFB %7.1f ms\n",
              variant_median("no-retry-rtt-sample"));

  std::printf("\nShape check: 0-RTT saves ~1 RTT of TTFB and keeps the full IACK PTO\n"
              "benefit; a Retry costs ~1 RTT but validates the address (no amplification\n"
              "blocking) and can seed an accurate first RTT estimate, after which the\n"
              "instant ACK still reduces the RTT variance (paper §5).\n");
  return 0;
}
