// Fig 6 — TTFB of a 10 KB transfer at 9 ms RTT under loss of the remaining
// first server flight: datagrams 2+3 (IACK) / datagram 2 (WFC).
//
// Paper shape: WFC outperforms IACK by ~177-188 ms. The instant ACK is not
// ack-eliciting, so the server holds no RTT sample and must recover on its
// default PTO (200 ms); under WFC the client's ACK of the coalesced ACK+SH
// gives the server a sample and recovery is fast. quiche (HTTP/1.1) aborts
// on duplicate CID retirement.
#include "bench_common.h"
#include "clients/profiles.h"
#include "core/loss_scenarios.h"
#include "core/sweep.h"
#include "registry.h"

QUICER_BENCH("fig06", "Figure 6: TTFB under first-server-flight tail loss") {
  using namespace quicer;
  core::PrintTitle(
      "Figure 6: TTFB, 10 KB @ 9 ms RTT, loss of first server flight tail (HTTP/1.1)");
  bench::PrintAxis(40, 320);

  core::SweepSpec spec;
  spec.name = "fig06";
  spec.base.http = http::Version::kHttp1;
  spec.base.rtt = sim::Millis(9);
  spec.base.response_body_bytes = http::kSmallFileBytes;
  spec.axes.clients.assign(clients::kAllClients.begin(), clients::kAllClients.end());
  spec.axes.behaviors = {quic::ServerBehavior::kWaitForCertificate,
                         quic::ServerBehavior::kInstantAck};
  spec.axes.losses = {{"first-server-flight-tail", [](const core::ExperimentConfig& c) {
                         return core::FirstServerFlightTailLoss(c.behavior,
                                                                c.certificate_bytes, c.http);
                       }}};
  spec.repetitions = bench::kRepetitions;
  spec.metrics = {{"response_ttfb_ms", core::MetricMode::kSummary, /*exclude_negative=*/true,
                   [](const core::ExperimentResult& r) { return r.ResponseTtfbMs(); }}};
  bench::Tune(spec, ctx);
  const core::SweepResult result = core::RunSweep(spec);
  if (bench::PartialExported(result)) return 0;

  for (clients::ClientImpl impl : spec.axes.clients) {
    auto find = [&](quic::ServerBehavior behavior) {
      return result.Find([&](const core::SweepPoint& p) {
        return p.config.client == impl && p.config.behavior == behavior;
      });
    };
    const core::PointSummary* wfc = find(quic::ServerBehavior::kWaitForCertificate);
    const core::PointSummary* iack = find(quic::ServerBehavior::kInstantAck);
    const std::string name(clients::Name(impl));
    std::printf("%10s WFC   [%s]  median %8.1f ms\n", name.c_str(),
                core::RenderAccumulatorScatter(wfc->values(), 40, 320).c_str(), wfc->MedianOrNegative());
    if (iack->all_aborted()) {
      std::printf("%10s IACK  (connections aborted: duplicate CID retirement)\n",
                  name.c_str());
    } else {
      std::printf("%10s IACK  [%s]  median %8.1f ms  (IACK penalty %+.1f ms)\n", name.c_str(),
                  core::RenderAccumulatorScatter(iack->values(), 40, 320).c_str(),
                  iack->values().Median(),
                  iack->values().Median() - (wfc->all_aborted() ? 0.0 : wfc->values().Median()));
    }
  }
  std::printf("\nShape check: IACK needs on the order of the server default PTO (200 ms)\n"
              "longer than WFC, matching the paper's ~177-188 ms penalty.\n");
  core::MaybeWriteSweepData(result);
  return 0;
}
