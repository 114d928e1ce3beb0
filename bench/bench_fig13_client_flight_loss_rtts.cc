// Fig 13 — the Fig 7 scenario (entire second client flight lost) repeated at
// 1, 9, 20, 100 and 300 ms RTT, HTTP/1.1 and HTTP/3.
//
// Paper shape: IACK improves the TTFB at every RTT; the absolute improvement
// is roughly constant (3x server processing), so the relative impact is
// largest at small RTTs. At 300 ms several clients' default PTO expires
// before the server flight arrives, which shifts the datagram mapping
// (Appendix F) — visible as changed medians rather than a sign flip.
#include "bench_common.h"
#include "clients/profiles.h"
#include "core/loss_scenarios.h"
#include "core/sweep.h"
#include "registry.h"

QUICER_BENCH("fig13", "Figure 13: second-client-flight loss across RTTs") {
  using namespace quicer;
  core::PrintTitle("Figure 13: second-client-flight loss across RTTs (Fig 7 generalised)");

  core::SweepSpec spec;
  spec.name = "fig13";
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
  spec.axes.losses = {{"second-client-flight", [](const core::ExperimentConfig& c) {
                         return core::SecondClientFlightLoss(c.client);
                       }}};
  spec.repetitions = 10;
  spec.metrics = {{"response_ttfb_ms", core::MetricMode::kSummary, /*exclude_negative=*/true,
                   [](const core::ExperimentResult& r) { return r.ResponseTtfbMs(); }}};
  bench::Tune(spec, ctx);
  const core::SweepResult result = core::RunSweep(spec);
  if (bench::PartialExported(result)) return 0;

  for (http::Version version : spec.axes.http_versions) {
    core::PrintHeading(std::string(http::ToString(version)));
    std::printf("%10s %8s  %12s  %12s  %16s\n", "client", "RTT[ms]", "WFC med[ms]",
                "IACK med[ms]", "improvement [ms]");
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
                      "aborted");
          continue;
        }
        const double wfc_median = wfc->values().Median();
        const double iack_median = iack->values().Median();
        std::printf("%10s %8.0f  %12.1f  %12.1f  %+16.1f\n",
                    std::string(clients::Name(impl)).c_str(), rtt_ms, wfc_median, iack_median,
                    wfc_median - iack_median);
      }
      std::printf("\n");
    }
  }
  std::printf("Shape check: IACK improvement roughly constant across RTTs; picoquic flat.\n");
  core::MaybeWriteSweepData(result);
  return 0;
}
