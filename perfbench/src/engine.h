// Shared by the two packet-engine workloads (handshake_paper and
// lossy_transfer): the traced stand-in for RunSweep's default runner, the
// exact per-run counts read from ExperimentResults, and the engine layers'
// per-layer metrics.
#pragma once

#include <vector>

#include "core/sweep.h"
#include "workload.h"

namespace perfbench {

/// Per-run counts summed over the counting rounds.
struct EngineCounts {
  std::uint64_t runs = 0;
  std::uint64_t datagrams = 0;       // sent by client and server
  std::uint64_t retransmitted = 0;   // retransmitted frames, both endpoints
  std::uint64_t spurious = 0;        // spurious retransmits, both endpoints
};

/// Does what RunSweep's default runner does (RunExperiment with the
/// scheduled seed, then each metric's extractor) inside a
/// "core.run_context.run" span, and adds to `counts` while `*counting`.
quicer::core::SweepRunner TracedRunner(const std::vector<quicer::core::MetricSpec>& metrics,
                                       EngineCounts* counts, const bool* counting);

/// Appends the event queue, packet pool, quic and recovery metrics (and the
/// netem ones when `with_netem`). `traced_runs` runs happened in the traced
/// phase; `counters` and `counts` cover the counting rounds.
void ReportEngine(const SpanTotals& spans, double traced_runs, const CounterFold& counters,
                  const EngineCounts& counts, bool with_netem, std::vector<LayerMetric>& out);

}  // namespace perfbench
