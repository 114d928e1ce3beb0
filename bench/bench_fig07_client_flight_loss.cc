// Fig 7 — TTFB of a 10 KB transfer at 9 ms RTT under loss of the entire
// second client flight (per-implementation datagram mapping, Table 4).
//
// Paper shape: IACK improves the TTFB by ~10-28 ms (the client's accurate
// first RTT sample shortens its PTO by 3x the server-side processing time);
// picoquic does not benefit because it ignores the Initial-space sample.
#include "bench_common.h"
#include "clients/profiles.h"
#include "core/loss_scenarios.h"
#include "core/sweep.h"
#include "registry.h"

QUICER_BENCH("fig07", "Figure 7: TTFB under second-client-flight loss") {
  using namespace quicer;
  core::PrintTitle(
      "Figure 7: TTFB, 10 KB @ 9 ms RTT, loss of the entire second client flight (HTTP/1.1)");
  bench::PrintAxis(40, 620);

  core::SweepSpec spec;
  spec.name = "fig07";
  spec.base.http = http::Version::kHttp1;
  spec.base.rtt = sim::Millis(9);
  spec.base.response_body_bytes = http::kSmallFileBytes;
  spec.axes.clients.assign(clients::kAllClients.begin(), clients::kAllClients.end());
  spec.axes.behaviors = {quic::ServerBehavior::kWaitForCertificate,
                         quic::ServerBehavior::kInstantAck};
  spec.axes.losses = {{"second-client-flight", [](const core::ExperimentConfig& c) {
                         return core::SecondClientFlightLoss(c.client);
                       }}};
  spec.repetitions = bench::kRepetitions;
  spec.metrics = {{"response_ttfb_ms", core::MetricMode::kSummary, /*exclude_negative=*/true,
                   [](const core::ExperimentResult& r) { return r.ResponseTtfbMs(); }}};
  bench::Scale(spec, ctx);
  const auto result = bench::Run(spec, ctx);
  if (!result) return 0;

  for (clients::ClientImpl impl : spec.axes.clients) {
    const auto row = bench::PrintSweepClientRow(*result, impl, spec.base.http, 40, 620);
    if (row.median_wfc > 0 && row.median_iack > 0) {
      std::printf("%10s  IACK improvement: %+.1f ms\n", "", row.median_wfc - row.median_iack);
    }
  }
  std::printf("\nShape check: IACK saves roughly 3x the server processing delay for every\n"
              "client except picoquic (which ignores the Initial-space RTT sample).\n");
  return 0;
}
