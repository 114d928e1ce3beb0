// Robustness ablation — stochastic loss instead of the paper's deterministic
// datagram drops. §2 notes prior work models loss as random drop rates; the
// paper argues deterministic drops expose root causes. This bench shows what
// the stochastic view *would* have reported: averaged over random loss, the
// instant ACK's help (client-flight losses) and harm (server-flight losses)
// partially cancel, which is exactly why the paper's per-scenario analysis
// is needed. The rates are netem Bernoulli models on the links axis, so the
// grid is pure scenario data (export-grid / run --grid).
#include "bench_common.h"
#include "core/sweep.h"
#include "registry.h"

namespace {

using namespace quicer;

core::SweepLink RandomLoss(const char* label, double rate, sim::Direction direction,
                           bool both) {
  core::SweepLink link;
  char name[64];
  std::snprintf(name, sizeof(name), "%s %.0f%%", label, rate * 100);
  link.label = name;
  netem::LossModel bernoulli;
  bernoulli.kind = netem::LossModel::Kind::kBernoulli;
  bernoulli.rate = rate;
  if (both) {
    link.model.loss[netem::kUp] = link.model.loss[netem::kDown] = bernoulli;
  } else {
    link.model.loss[static_cast<int>(direction)] = bernoulli;
  }
  return link;
}

}  // namespace

QUICER_BENCH("ablation_random_loss", "Ablation: stochastic loss rates (WFC vs IACK)") {
  core::PrintTitle("Ablation: stochastic loss (the modelling the paper argues against)");

  const double kRates[] = {0.01, 0.05, 0.10, 0.20};
  struct Section {
    const char* title;
    const char* label;
    sim::Direction direction;
    bool both;
  };
  const Section kSections[] = {
      {"random loss server->client", "s->c", sim::Direction::kServerToClient, false},
      {"random loss client->server", "c->s", sim::Direction::kClientToServer, false},
      {"random loss both directions", "both", sim::Direction::kClientToServer, true},
  };

  core::SweepSpec spec;
  spec.name = "ablation_random_loss";
  spec.base.client = clients::ClientImpl::kQuicGo;
  spec.base.rtt = sim::Millis(9);
  spec.base.response_body_bytes = http::kSmallFileBytes;
  spec.base.time_limit = sim::Seconds(30);
  spec.axes.behaviors = {quic::ServerBehavior::kWaitForCertificate,
                         quic::ServerBehavior::kInstantAck};
  for (const Section& section : kSections) {
    for (double rate : kRates) {
      spec.axes.links.push_back(RandomLoss(section.label, rate, section.direction,
                                            section.both));
    }
  }
  spec.repetitions = 60;
  // The legacy loop's seed schedule (500 + i * 101), completed-only.
  spec.seed_base = 500;
  spec.seed_stride = 101;
  spec.metrics = {{"ttfb_ms", core::MetricMode::kSummary, /*exclude_negative=*/true,
                   [](const core::ExperimentResult& r) {
                     return r.completed ? r.TtfbMs() : -1.0;
                   }}};
  bench::Scale(spec, ctx);
  const auto result = bench::Run(spec, ctx);
  if (!result) return 0;

  for (const Section& section : kSections) {
    core::PrintHeading(section.title);
    std::printf("%10s  %22s  %22s\n", "loss rate", "WFC med/p90 [ms]", "IACK med/p90 [ms]");
    for (double rate : kRates) {
      char label[64];
      std::snprintf(label, sizeof(label), "%s %.0f%%", section.label, rate * 100);
      auto cell = [&](quic::ServerBehavior behavior) {
        return result->Find([&](const core::SweepPoint& p) {
          return p.link == label && p.config.behavior == behavior;
        });
      };
      const core::PointSummary* wfc = cell(quic::ServerBehavior::kWaitForCertificate);
      const core::PointSummary* iack = cell(quic::ServerBehavior::kInstantAck);
      auto p90 = [](const core::PointSummary* s) {
        return s->all_aborted() ? -1.0 : s->values().Percentile(90);
      };
      std::printf("%9.0f%%  %10.1f / %8.1f  %10.1f / %8.1f\n", rate * 100,
                  wfc->MedianOrNegative(), p90(wfc), iack->MedianOrNegative(), p90(iack));
    }
  }
  std::printf("\nShape check: under random loss the WFC/IACK medians blur together — the\n"
              "per-flight deterministic scenarios (Fig 6/7) are what isolate the instant\n"
              "ACK's distinct help/harm mechanisms.\n");
  return 0;
}
