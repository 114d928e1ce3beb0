// Fig 16 — Median improvement of the first PTO (IACK over WFC), derived from
// the first recovery:metrics update each client exposes in its qlog, across
// network RTTs from 1 to 300 ms.
//
// Paper shape: the improvement is roughly constant across RTTs per client
// (median 7 to 24.7 ms overall); go-x-net is erratic due to its smoothed-RTT
// mis-initialisation.
#include "bench_common.h"
#include "clients/profiles.h"
#include "registry.h"

namespace {

double FirstPtoMs(const quicer::core::ExperimentResult& result) {
  // Paper methodology: use the first exposed metrics update; if the
  // implementation did not expose one, fall back to the packet-derived PTO
  // (our first_pto_period metric).
  if (!result.client_metric_updates.empty()) {
    return quicer::sim::ToMillis(result.client_metric_updates.front().pto);
  }
  return quicer::sim::ToMillis(result.client.first_pto_period);
}

}  // namespace

QUICER_BENCH("fig16", "Figure 16: first-PTO improvement of IACK over WFC across RTTs") {
  using namespace quicer;
  core::PrintTitle("Figure 16: median first-PTO improvement of IACK over WFC across RTTs");

  core::SweepSpec spec;
  spec.name = "fig16";
  spec.base.http = http::Version::kHttp1;
  spec.base.response_body_bytes = 10 * 1024;
  spec.base.time_limit = sim::Seconds(30);
  spec.axes.rtts = {sim::Millis(1),   sim::Millis(9),   sim::Millis(20),  sim::Millis(50),
                    sim::Millis(100), sim::Millis(150), sim::Millis(200), sim::Millis(300)};
  if (ctx.dense_axes()) {
    spec.axes.rtts.insert(spec.axes.rtts.end(), {sim::Millis(5), sim::Millis(35),
                                                 sim::Millis(75), sim::Millis(250)});
  }
  spec.axes.clients.assign(clients::kAllClients.begin(), clients::kAllClients.end());
  spec.axes.behaviors = {quic::ServerBehavior::kWaitForCertificate,
                         quic::ServerBehavior::kInstantAck};
  spec.repetitions = 15;
  // Raw values (the -1 no-PTO sentinel included), like the legacy loops.
  spec.metrics = {{"first_pto_ms", core::MetricMode::kSummary, /*exclude_negative=*/false,
                   &FirstPtoMs}};
  bench::Scale(spec, ctx);
  const auto result = bench::Run(spec, ctx);
  if (!result) return 0;

  std::printf("%10s", "RTT[ms]");
  for (clients::ClientImpl impl : clients::kAllClients) {
    std::printf("  %9s", std::string(clients::Name(impl)).c_str());
  }
  std::printf("   (improvement in ms)\n");

  for (sim::Duration rtt : spec.axes.rtts) {  // rows = the spec's own axis
    std::printf("%10.0f", sim::ToMillis(rtt));
    for (clients::ClientImpl impl : clients::kAllClients) {
      auto median = [&](quic::ServerBehavior behavior) {
        const core::PointSummary* cell = result->Find([&](const core::SweepPoint& p) {
          return p.config.client == impl && p.config.rtt == rtt &&
                 p.config.behavior == behavior;
        });
        return cell == nullptr ? -1.0 : cell->values().Median();
      };
      std::printf("  %9.1f", median(quic::ServerBehavior::kWaitForCertificate) -
                                 median(quic::ServerBehavior::kInstantAck));
    }
    std::printf("\n");
  }
  std::printf("\nShape check: per-client improvement approximately constant across RTTs\n"
              "(~3x the server-side processing delay); go-x-net noisy.\n");
  return 0;
}
