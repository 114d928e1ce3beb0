// Fig 5 — TTFB of a 10 KB transfer at 9 ms RTT with the 5,113 B certificate
// (exceeding the anti-amplification limit), Δt = 200 ms, no packet loss;
// HTTP/1.1 and HTTP/3, all eight clients, WFC vs IACK.
//
// Paper shape: IACK reduces the median TTFB (largest for neqo ~9.6 ms and
// ngtcp2 ~10 ms); mvfst/picoquic barely change (no probes on instant ACK);
// go-x-net is erratic (mis-initialised smoothed RTT); HTTP/3 sits ~1 RTT
// below HTTP/1.1 because the server's SETTINGS is the first stream byte.
#include "bench_common.h"
#include "clients/profiles.h"
#include "core/sweep.h"
#include "registry.h"

QUICER_BENCH("fig05", "Figure 5: TTFB under the amplification limit, WFC vs IACK") {
  using namespace quicer;
  core::PrintTitle(
      "Figure 5: TTFB, 10 KB @ 9 ms RTT, large certificate (> amplification limit), "
      "delta_t = 200 ms, no loss");

  core::SweepSpec spec;
  spec.name = "fig05";
  spec.base.rtt = sim::Millis(9);
  spec.base.certificate_bytes = tls::kLargeCertificateBytes;
  spec.base.cert_fetch_delay = sim::Millis(200);
  spec.base.response_body_bytes = http::kSmallFileBytes;
  spec.axes.http_versions = {http::Version::kHttp1, http::Version::kHttp3};
  spec.axes.clients.assign(clients::kAllClients.begin(), clients::kAllClients.end());
  spec.axes.behaviors = {quic::ServerBehavior::kWaitForCertificate,
                         quic::ServerBehavior::kInstantAck};
  spec.repetitions = bench::kRepetitions;
  bench::Tune(spec, ctx);
  const core::SweepResult result = core::RunSweep(spec);
  if (bench::PartialExported(result)) return 0;

  for (http::Version version : spec.axes.http_versions) {
    core::PrintHeading(std::string(http::ToString(version)));
    bench::PrintAxis(200, 320);
    for (clients::ClientImpl impl : spec.axes.clients) {
      if (version == http::Version::kHttp3 && !clients::SupportsHttp3(impl)) continue;
      const auto row = bench::PrintSweepClientRow(result, impl, version, 200, 320);
      if (row.median_wfc > 0 && row.median_iack > 0) {
        std::printf("%10s  IACK improvement: %+.1f ms\n", "",
                    row.median_wfc - row.median_iack);
      }
    }
  }
  core::MaybeWriteSweepData(result);
  return 0;
}
