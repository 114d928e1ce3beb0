// Appendix D ablation — could the ACK Delay field replace instant ACK?
//
// Evaluates the three client strategies (RFC standard, apply-at-init,
// re-init-on-second-sample) against the reporting behaviour actually seen in
// the wild (Table 3 zero-reporters, honest reporters, over-reporters), plus
// the §5 tuning options: padded instant ACKs and ClientHello-retransmitting
// probes.
//
// Two registered benches: the strategy table is a closed-form model sweep
// (scenario case as an extra axis, custom runner), the §5 tuning table an
// experiment sweep over variants. `bench_suite --filter=ablation_ackdelay`
// selects both.
#include <cstdio>

#include "bench_common.h"
#include "core/ack_delay_alt.h"
#include "registry.h"

namespace {

using namespace quicer;

struct StrategyCase {
  const char* label;
  core::AckDelayStrategy strategy;
  double reported_ms;
};

constexpr StrategyCase kCases[] = {
    {"standard / any", core::AckDelayStrategy::kRfcStandard, 4.0},
    {"apply, honest 4ms", core::AckDelayStrategy::kApplyAtInit, 4.0},
    {"apply, zero (Table3)", core::AckDelayStrategy::kApplyAtInit, 0.0},
    {"apply, >RTT (Fig10)", core::AckDelayStrategy::kApplyAtInit, 50.0},
    {"reinit on 2nd sample", core::AckDelayStrategy::kReinitOnSecond, 4.0},
};
constexpr int kCaseCount = 5;

}  // namespace

QUICER_BENCH("ablation_ackdelay_strategies",
             "Appendix D: ACK Delay client strategies vs instant ACK (model)") {
  core::PrintTitle("Appendix D ablation: ACK Delay vs instant ACK, and Section 5 tuning");

  core::SweepSpec spec;
  spec.name = "ablation_ackdelay_strategies";
  spec.base.rtt = sim::Millis(9);
  spec.base.cert_fetch_delay = sim::Millis(4);
  core::SweepExtraAxis cases;
  cases.name = "case";
  for (int c = 0; c < kCaseCount; ++c) cases.values.push_back({kCases[c].label, c});
  spec.axes.extras = {cases};
  spec.repetitions = 1;
  auto metric = [](const char* name) {
    return core::MetricSpec{name, core::MetricMode::kSummary, /*exclude_negative=*/false,
                            nullptr};
  };
  spec.metrics = {metric("first_pto_wfc_ms"), metric("first_pto_iack_ms"),
                  metric("clamped")};
  spec.runner = [](const core::SweepRunContext& run) {
    const StrategyCase& c = kCases[run.point.Extra("case")->value];
    core::AckDelayAltScenario scenario;
    scenario.rtt = run.point.config.rtt;
    scenario.delta_t = run.point.config.cert_fetch_delay;
    scenario.reported_ack_delay = sim::Millis(c.reported_ms);
    const auto result = core::EvaluateStrategy(c.strategy, scenario);
    return std::vector<double>{sim::ToMillis(result.first_pto_wfc),
                               sim::ToMillis(result.first_pto_iack),
                               result.clamped_to_min_rtt ? 1.0 : 0.0};
  };
  bench::TuneObserver(spec, ctx);
  const core::SweepResult result = core::RunSweep(spec);
  if (bench::PartialExported(result)) return 0;

  core::PrintHeading("First-PTO by strategy (RTT 9 ms, delta_t 4 ms)");
  std::printf("%22s  %18s  %18s  %10s\n", "reported ACK Delay", "WFC first PTO [ms]",
              "IACK first PTO [ms]", "clamped");
  for (const core::PointSummary& summary : result.points) {
    std::printf("%22s  %18.1f  %18.1f  %10s\n", summary.point.Extra("case")->label.c_str(),
                summary.Metric("first_pto_wfc_ms")->summary.mean(),
                summary.Metric("first_pto_iack_ms")->summary.mean(),
                summary.Metric("clamped")->summary.mean() > 0 ? "yes" : "no");
  }
  core::MaybeWriteSweepData(result);
  return 0;
}

QUICER_BENCH("ablation_ackdelay_tuning",
             "Section 5 tuning: padded instant ACK, ClientHello probes") {
  core::SweepSpec spec;
  spec.name = "ablation_ackdelay_tuning";
  spec.base.client = clients::ClientImpl::kNgtcp2;
  spec.base.behavior = quic::ServerBehavior::kInstantAck;
  spec.base.rtt = sim::Millis(9);
  spec.base.certificate_bytes = tls::kLargeCertificateBytes;
  spec.base.cert_fetch_delay = sim::Millis(200);
  spec.base.response_body_bytes = http::kSmallFileBytes;
  spec.axes.variants = {
      {"plain instant ACK", nullptr},
      {"padded instant ACK (PMTUD probe)",
       [](core::ExperimentConfig& c) { c.pad_instant_ack = true; }},
      {"client probes resend ClientHello",
       [](core::ExperimentConfig& c) { c.client_probe_with_data = true; }}};
  spec.repetitions = 15;
  bench::Tune(spec, ctx);
  const core::SweepResult result = core::RunSweep(spec);
  if (bench::PartialExported(result)) return 0;

  core::PrintHeading("Section 5 tuning knobs (large cert, delta_t 200 ms, 9 ms RTT, IACK)");
  std::printf("%34s  %12s\n", "variant", "TTFB [ms]");
  for (const core::PointSummary& summary : result.points) {
    std::printf("%34s  %12.1f\n", summary.point.variant.c_str(), summary.MedianOrNegative());
  }
  std::printf("\nA padded instant ACK spends 1200 B of the 3x budget, which can delay the\n"
              "flight (the paper's caution); ClientHello-retransmitting probes help the\n"
              "server rebuild state faster after loss.\n");
  core::MaybeWriteSweepData(result);
  return 0;
}
