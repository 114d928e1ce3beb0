// Fig 11 — Number of exposed recovery:metric updates vs packets with new
// ACKs for a 10 MB transfer at 100 ms RTT under WFC.
//
// Paper shape: implementations differ widely in how many RTT samples they
// can obtain (their ack-eliciting flow-control cadence differs) and in how
// many of the resulting metric updates they expose in qlog (Appendix E).
//
// Sweep mapping: clients axis, one repetition per client (the transfer is
// deterministic per seed), three summary metrics per run — the MetricSpec
// set replaces the legacy per-client RunExperiment loop.
#include "bench_common.h"
#include "clients/profiles.h"
#include "registry.h"

QUICER_BENCH("fig11", "Figure 11: RTT samples vs exposed metric updates (10 MB)") {
  using namespace quicer;
  core::PrintTitle("Figure 11: RTT samples vs exposed metric updates, 10 MB @ 100 ms, WFC");

  core::SweepSpec spec;
  spec.name = "fig11";
  spec.base.http = http::Version::kHttp1;
  spec.base.behavior = quic::ServerBehavior::kWaitForCertificate;
  spec.base.rtt = sim::Millis(100);
  spec.base.response_body_bytes = http::kLargeFileBytes;
  spec.base.time_limit = sim::Seconds(120);
  spec.axes.clients.assign(clients::kAllClients.begin(), clients::kAllClients.end());
  spec.repetitions = 1;
  spec.metrics = {
      {"packets_with_new_acks", core::MetricMode::kSummary, /*exclude_negative=*/false,
       [](const core::ExperimentResult& r) {
         return static_cast<double>(r.client_packets_with_new_acks);
       }},
      {"metric_updates", core::MetricMode::kSummary, /*exclude_negative=*/false,
       [](const core::ExperimentResult& r) {
         return static_cast<double>(r.client_metric_updates.size());
       }},
      {"completed", core::MetricMode::kSummary, /*exclude_negative=*/false,
       [](const core::ExperimentResult& r) { return r.completed ? 1.0 : 0.0; }}};
  bench::TuneObserver(spec, ctx);
  const core::SweepResult result = core::RunSweep(spec);
  if (bench::PartialExported(result)) return 0;

  std::printf("%10s  %22s  %24s  %10s\n", "client", "packets w/ new ACKs",
              "recovery:metric updates", "exposed %");
  for (const core::PointSummary& summary : result.points) {
    const double packets = summary.Metric("packets_with_new_acks")->summary.mean();
    const double updates = summary.Metric("metric_updates")->summary.mean();
    const double exposed = packets == 0 ? 0.0 : 100.0 * updates / packets;
    std::printf("%10s  %22llu  %24zu  %9.1f%%%s\n", summary.point.client.c_str(),
                static_cast<unsigned long long>(packets), static_cast<std::size_t>(updates),
                exposed,
                summary.Metric("completed")->summary.mean() > 0 ? "" : "  (transfer incomplete)");
  }
  std::printf("\nShape check: flow-update cadence drives the sample counts (quiche/go-x-net\n"
              "highest); neqo/ngtcp2/picoquic/quic-go expose only a fraction of updates.\n");
  core::MaybeWriteSweepData(result);
  return 0;
}
