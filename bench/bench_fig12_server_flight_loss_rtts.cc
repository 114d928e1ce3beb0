// Fig 12 — the Fig 6 scenario (first-server-flight tail lost) repeated at
// 1, 9, 20, 100 and 300 ms RTT, HTTP/1.1 and HTTP/3.
//
// Paper shape: IACK's penalty (~ server default PTO) persists up to ~100 ms
// RTT; at 300 ms RTT the relationship inverts — under WFC the server's
// sample-based PTO (3 x RTT = 900 ms) exceeds its 200 ms default, so IACK
// (running on the default) recovers first.
#include "bench_common.h"
#include "clients/profiles.h"
#include "core/loss_scenarios.h"
#include "core/sweep.h"
#include "registry.h"

QUICER_BENCH("fig12", "Figure 12: first-server-flight loss across RTTs") {
  using namespace quicer;
  core::PrintTitle("Figure 12: first-server-flight loss across RTTs (Fig 6 generalised)");

  core::SweepSpec spec;
  spec.name = "fig12";
  spec.base.response_body_bytes = http::kSmallFileBytes;
  spec.base.time_limit = sim::Seconds(30);
  spec.axes.http_versions = {http::Version::kHttp1, http::Version::kHttp3};
  spec.axes.rtts = {sim::Millis(1), sim::Millis(9), sim::Millis(20), sim::Millis(100),
                    sim::Millis(300)};
  if (bench::DenseAxes(ctx)) {
    spec.axes.rtts.insert(spec.axes.rtts.end(), {sim::Millis(50), sim::Millis(200)});
  }
  spec.axes.clients.assign(clients::kAllClients.begin(), clients::kAllClients.end());
  spec.axes.behaviors = {quic::ServerBehavior::kWaitForCertificate,
                         quic::ServerBehavior::kInstantAck};
  spec.axes.losses = {{"first-server-flight-tail", [](const core::ExperimentConfig& c) {
                         return core::FirstServerFlightTailLoss(c.behavior,
                                                                c.certificate_bytes, c.http);
                       }}};
  spec.repetitions = 10;
  spec.metrics = {{"response_ttfb_ms", core::MetricMode::kSummary, /*exclude_negative=*/true,
                   [](const core::ExperimentResult& r) { return r.ResponseTtfbMs(); }}};
  bench::Tune(spec, ctx);
  const core::SweepResult result = core::RunSweep(spec);
  if (bench::PartialExported(result)) return 0;

  for (http::Version version : spec.axes.http_versions) {
    core::PrintHeading(std::string(http::ToString(version)));
    std::printf("%10s %8s  %12s  %12s  %14s\n", "client", "RTT[ms]", "WFC med[ms]",
                "IACK med[ms]", "IACK-WFC [ms]");
    for (sim::Duration rtt : spec.axes.rtts) {
      const double rtt_ms = sim::ToMillis(rtt);
      for (clients::ClientImpl impl : spec.axes.clients) {
        if (version == http::Version::kHttp3 && !clients::SupportsHttp3(impl)) continue;
        auto find = [&](quic::ServerBehavior behavior) {
          return result.Find([&](const core::SweepPoint& p) {
            return p.config.client == impl && p.config.http == version &&
                   p.config.rtt == rtt && p.config.behavior == behavior;
          });
        };
        const core::PointSummary* wfc = find(quic::ServerBehavior::kWaitForCertificate);
        const core::PointSummary* iack = find(quic::ServerBehavior::kInstantAck);
        if (wfc->all_aborted() || iack->all_aborted()) {
          std::printf("%10s %8.0f  %s\n", std::string(clients::Name(impl)).c_str(), rtt_ms,
                      "aborted (quiche CID retirement quirk)");
          continue;
        }
        const double wfc_median = wfc->values().Median();
        const double iack_median = iack->values().Median();
        std::printf("%10s %8.0f  %12.1f  %12.1f  %+14.1f\n",
                    std::string(clients::Name(impl)).c_str(), rtt_ms, wfc_median, iack_median,
                    iack_median - wfc_median);
      }
      std::printf("\n");
    }
  }
  std::printf("Shape check: positive IACK penalty up to ~100 ms RTT; sign flips by 300 ms.\n");
  core::MaybeWriteSweepData(result);
  return 0;
}
