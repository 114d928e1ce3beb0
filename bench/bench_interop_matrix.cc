// QUIC-Interop-Runner-style matrix: median lossless TTFB for every client,
// HTTP version and server behaviour — the baseline grid underlying the
// paper's testbed (§3), useful for spotting profile regressions at a glance.
#include "bench_common.h"
#include "clients/profiles.h"
#include "registry.h"

QUICER_BENCH("interop_matrix", "Interop matrix: median lossless TTFB grid") {
  using namespace quicer;
  core::PrintTitle("Interop matrix: median TTFB [ms], 10 KB @ 9 ms RTT, no loss");

  core::SweepSpec spec;
  spec.name = "interop_matrix";
  spec.base.rtt = sim::Millis(9);
  spec.base.response_body_bytes = http::kSmallFileBytes;
  spec.axes.clients.assign(clients::kAllClients.begin(), clients::kAllClients.end());
  spec.axes.http_versions = {http::Version::kHttp1, http::Version::kHttp3};
  spec.axes.behaviors = {quic::ServerBehavior::kWaitForCertificate,
                         quic::ServerBehavior::kInstantAck};
  spec.repetitions = 15;
  bench::Scale(spec, ctx);
  const auto result = bench::Run(spec, ctx);
  if (!result) return 0;

  std::printf("%10s  %10s  %10s  %10s  %10s  %12s\n", "client", "H1/WFC", "H1/IACK", "H3/WFC",
              "H3/IACK", "H3-H1 gap");
  for (clients::ClientImpl impl : spec.axes.clients) {
    double cells[4] = {-1, -1, -1, -1};
    int cell = 0;
    for (http::Version version : spec.axes.http_versions) {
      for (quic::ServerBehavior behavior : spec.axes.behaviors) {
        const core::PointSummary* summary = result->Find([&](const core::SweepPoint& p) {
          return p.config.client == impl && p.config.http == version &&
                 p.config.behavior == behavior;
        });
        cells[cell++] = summary == nullptr ? -1.0 : summary->MedianOrNegative();
      }
    }
    std::printf("%10s  %10.1f  %10.1f  %10.1f  %10.1f  %12.1f\n",
                std::string(clients::Name(impl)).c_str(), cells[0], cells[1], cells[2],
                cells[3], cells[2] > 0 ? cells[0] - cells[2] : 0.0);
  }
  std::printf("\nShape check: without loss or amplification pressure, WFC == IACK for every\n"
              "client; HTTP/3 sits ~1 RTT below HTTP/1.1 (SETTINGS is the first stream\n"
              "byte). The instant-ACK effects only appear under loss (Fig 6/7) or the\n"
              "anti-amplification limit (Fig 5).\n");
  return 0;
}
