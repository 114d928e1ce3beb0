#include "engine.h"

#include <algorithm>
#include <string>

namespace perfbench {

namespace core = quicer::core;

core::SweepRunner TracedRunner(const std::vector<core::MetricSpec>& metrics,
                               EngineCounts* counts, const bool* counting) {
  return [metrics, counts, counting](const core::SweepRunContext& ctx) {
    core::ExperimentConfig config = ctx.point.config;
    config.seed = ctx.seed;
    core::ExperimentResult result;
    {
      Span span("core.run_context.run");
      result = core::RunExperiment(config);
    }
    if (*counting) {
      ++counts->runs;
      counts->datagrams += result.client.datagrams_sent + result.server.datagrams_sent;
      counts->retransmitted += static_cast<std::uint64_t>(result.client.retransmitted_frames +
                                                          result.server.retransmitted_frames);
      counts->spurious += static_cast<std::uint64_t>(result.client.spurious_retransmits +
                                                     result.server.spurious_retransmits);
    }
    std::vector<double> values;
    values.reserve(metrics.size());
    for (const core::MetricSpec& metric : metrics) {
      values.push_back(metric.extract ? metric.extract(result) : result.TtfbMs());
    }
    return values;
  };
}

void ReportEngine(const SpanTotals& spans, double traced_runs, const CounterFold& counters,
                  const EngineCounts& counts, bool with_netem, std::vector<LayerMetric>& out) {
  const double runs = static_cast<double>(counts.runs);
  const double run_ns = TotalNs(spans, "core.run_context.run");
  const double events_per_run = counters.Get("sim.events_run") / runs;
  const double datagrams_per_run = static_cast<double>(counts.datagrams) / runs;
  const double entries = counters.Get("sim.events_wheel") + counters.Get("sim.events_overflow");
  auto ratio = [](double part, double whole) { return whole > 0.0 ? part / whole : 0.0; };

  out.push_back({"run_context.us_per_run", run_ns / traced_runs * 1e-3, "us"});
  out.push_back({"counted_runs", runs, "count"});
  out.push_back({"sim.ns_per_event", run_ns / (events_per_run * traced_runs), "ns"});
  out.push_back({"sim.events_per_run", events_per_run, "count"});
  out.push_back({"sim.queue_entries_per_run", entries / runs, "count"});
  out.push_back({"sim.overflow_ratio", ratio(counters.Get("sim.events_overflow"), entries),
                 "ratio"});
  for (const char* kind : {"packet", "frame"}) {
    const std::string base = std::string("quic.pool.") + kind;
    const double acquires = counters.Get(base + "_acquire");
    out.push_back({base + "_acquires_per_run", acquires / runs, "count"});
    out.push_back({base + "_hit_ratio", ratio(counters.Get(base + "_hit"), acquires), "ratio"});
  }
  out.push_back({"quic.ns_per_datagram", run_ns / (datagrams_per_run * traced_runs), "ns"});
  out.push_back({"quic.datagrams_per_run", datagrams_per_run, "count"});
  out.push_back({"quic.retransmitted_frames_per_run",
                 static_cast<double>(counts.retransmitted) / runs, "count"});
  out.push_back({"quic.spurious_retransmits_per_run",
                 static_cast<double>(counts.spurious) / runs, "count"});
  for (const char* name :
       {"pto_fired", "loss_detection_runs", "packets_lost", "loss_timer_updates"}) {
    out.push_back({std::string("recovery.") + name + "_per_run",
                   counters.Get(std::string("recovery.") + name) / runs, "count"});
  }
  if (!with_netem) return;
  double enqueued = 0.0, pattern = 0.0, stochastic = 0.0, queue = 0.0, max_queue = 0.0;
  for (const char* dir : {"up", "down"}) {
    const std::string base = std::string("netem.") + dir;
    enqueued += counters.Get(base + ".enqueued");
    pattern += counters.Get(base + ".drop_pattern");
    stochastic += counters.Get(base + ".drop_stochastic");
    queue += counters.Get(base + ".drop_queue");
    max_queue = std::max(max_queue, counters.Get(base + ".max_queue_pkts"));
  }
  const double offered = enqueued + pattern + stochastic;
  out.push_back({"netem.offered_per_run", offered / runs, "count"});
  out.push_back({"netem.enqueued_per_run", enqueued / runs, "count"});
  out.push_back({"netem.drop_stochastic_ratio", ratio(stochastic, offered), "ratio"});
  out.push_back({"netem.drop_queue_ratio", ratio(queue, enqueued), "ratio"});
  out.push_back({"netem.max_queue_pkts", max_queue, "count"});
}

}  // namespace perfbench
