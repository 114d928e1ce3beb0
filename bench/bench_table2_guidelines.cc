// Table 2 — Deployment guidelines: when should a frontend prefer WFC or
// IACK? The advisor encodes the paper's matrix; this bench cross-validates
// the cells the paper's testbed actually exercised against the packet-level
// simulator. "Measured" picks the behaviour with the lower median TTFB;
// exact ties are broken by client probe load (the paper's "futile load"
// argument for WFC when Δt exceeds the client PTO).
#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "core/advisor.h"
#include "core/loss_scenarios.h"
#include "core/sweep.h"
#include "registry.h"

namespace {

using namespace quicer;

double ProbesMetric(const core::ExperimentResult& r) {
  return static_cast<double>(r.client.probe_datagrams_sent + r.server.probe_datagrams_sent);
}

/// Raw probe counts (negatives are impossible but the legacy loops
/// aggregated raw values).
core::MetricSpec ProbesMetricSpec() {
  return {"probe_datagrams", core::MetricMode::kSummary, /*exclude_negative=*/false,
          &ProbesMetric};
}

core::SweepSpec BaseSpec(const bench::BenchContext& ctx) {
  core::SweepSpec spec;
  spec.base.client = clients::ClientImpl::kNgtcp2;
  spec.base.rtt = sim::Millis(9);
  spec.base.response_body_bytes = http::kSmallFileBytes;
  spec.axes.behaviors = {quic::ServerBehavior::kWaitForCertificate,
                         quic::ServerBehavior::kInstantAck};
  spec.repetitions = 15;
  bench::Tune(spec, ctx);
  return spec;
}

struct Measurement {
  double ttfb_ms = -1.0;
  double probes = 0.0;
};

/// Extracts one (behavior) cell from the paired ttfb/probes sweeps.
Measurement Extract(const core::SweepResult& ttfb, const core::SweepResult& probes,
                    const std::function<bool(const core::SweepPoint&)>& cell,
                    quic::ServerBehavior behavior) {
  auto with_behavior = [&](const core::SweepPoint& p) {
    return p.config.behavior == behavior && cell(p);
  };
  Measurement m;
  m.ttfb_ms = ttfb.Find(with_behavior)->MedianOrNegative();
  m.probes = probes.Find(with_behavior)->values().Median();
  return m;
}

void PrintCell(std::size_t cert, core::LossCase loss, sim::Duration delta,
               const Measurement* m_wfc, const Measurement* m_iack) {
  core::DeploymentScenario scenario;
  scenario.certificate_bytes = cert;
  scenario.client_frontend_rtt = sim::Millis(9);
  scenario.frontend_cert_delay = delta;
  scenario.loss = loss;
  const core::Recommendation advised = core::Advise(scenario);

  if (m_wfc == nullptr || m_iack == nullptr) {
    std::printf("%8zu B  %-32s  dt=%6.0f ms  advised %-4s  (paper synthesis; "
                "loss+amplification cell not measured in the testbed)\n",
                cert, std::string(ToString(loss)).c_str(), sim::ToMillis(delta),
                std::string(ToString(advised)).c_str());
    return;
  }

  core::Recommendation measured;
  if (m_iack->ttfb_ms < 0) {
    measured = core::Recommendation::kWfc;
  } else if (m_wfc->ttfb_ms < 0) {
    measured = core::Recommendation::kIack;
  } else if (std::abs(m_iack->ttfb_ms - m_wfc->ttfb_ms) > 0.5) {
    measured = m_iack->ttfb_ms < m_wfc->ttfb_ms ? core::Recommendation::kIack
                                                : core::Recommendation::kWfc;
  } else {
    // TTFB tie: fewer probe datagrams (less futile load) wins.
    measured = m_iack->probes <= m_wfc->probes ? core::Recommendation::kIack
                                               : core::Recommendation::kWfc;
  }

  std::printf("%8zu B  %-32s  dt=%6.0f ms  advised %-4s  measured %-4s  "
              "(WFC %7.1f ms/%.0f probes, IACK %7.1f ms/%.0f probes)  %s\n",
              cert, std::string(ToString(loss)).c_str(), sim::ToMillis(delta),
              std::string(ToString(advised)).c_str(), std::string(ToString(measured)).c_str(),
              m_wfc->ttfb_ms, m_wfc->probes, m_iack->ttfb_ms, m_iack->probes,
              advised == measured ? "agree" : "DIFFER");
}

}  // namespace

QUICER_BENCH("table2", "Table 2: deployment guidelines (advisor vs simulator)") {
  core::PrintTitle("Table 2: deployment guidelines (advisor vs simulator)");

  // Loss grid: the two measured loss scenarios at Δt = 0 with the small
  // certificate (the large-certificate loss cells are paper synthesis).
  core::SweepSpec loss_spec = BaseSpec(ctx);
  loss_spec.name = "table2_loss";
  loss_spec.axes.losses = {
      {"first-server-flight-tail",
       [](const core::ExperimentConfig& c) {
         return core::FirstServerFlightTailLoss(c.behavior, c.certificate_bytes, c.http);
       }},
      {"second-client-flight",
       [](const core::ExperimentConfig&) {
         return core::SecondClientFlightLoss(clients::ClientImpl::kNgtcp2);
       }}};
  core::SweepSpec loss_probes = loss_spec;
  loss_probes.name = "table2_loss_probes";
  loss_probes.metrics = {ProbesMetricSpec()};

  // Δt grid: no loss, both certificate sizes, the two measured Δt values.
  core::SweepSpec delay_spec = BaseSpec(ctx);
  delay_spec.name = "table2_delay";
  delay_spec.axes.certificate_sizes = {tls::kSmallCertificateBytes,
                                       tls::kLargeCertificateBytes};
  delay_spec.axes.cert_fetch_delays = {sim::Millis(20), sim::Millis(200)};
  core::SweepSpec delay_probes = delay_spec;
  delay_probes.name = "table2_delay_probes";
  delay_probes.metrics = {ProbesMetricSpec()};

  const core::SweepResult loss_ttfb_r = core::RunSweep(loss_spec);
  const core::SweepResult loss_probes_r = core::RunSweep(loss_probes);
  const core::SweepResult delay_ttfb_r = core::RunSweep(delay_spec);
  const core::SweepResult delay_probes_r = core::RunSweep(delay_probes);
  if (bench::AnyPartialExported(
          {&loss_ttfb_r, &loss_probes_r, &delay_ttfb_r, &delay_probes_r})) {
    return 0;
  }

  auto loss_cell = [&](const std::string& label, quic::ServerBehavior behavior) {
    return Extract(loss_ttfb_r, loss_probes_r,
                   [&](const core::SweepPoint& p) { return p.loss == label; }, behavior);
  };
  auto delay_cell = [&](std::size_t cert, sim::Duration delta,
                        quic::ServerBehavior behavior) {
    return Extract(delay_ttfb_r, delay_probes_r,
                   [&](const core::SweepPoint& p) {
                     return p.certificate_bytes == cert &&
                            p.config.cert_fetch_delay == delta;
                   },
                   behavior);
  };
  using quic::ServerBehavior;

  std::printf("Certificate within the amplification limit (1,212 B):\n");
  {
    const Measurement wfc = loss_cell("first-server-flight-tail", ServerBehavior::kWaitForCertificate);
    const Measurement iack = loss_cell("first-server-flight-tail", ServerBehavior::kInstantAck);
    PrintCell(tls::kSmallCertificateBytes, core::LossCase::kFirstServerFlightTail, 0, &wfc, &iack);
  }
  {
    const Measurement wfc = loss_cell("second-client-flight", ServerBehavior::kWaitForCertificate);
    const Measurement iack = loss_cell("second-client-flight", ServerBehavior::kInstantAck);
    PrintCell(tls::kSmallCertificateBytes, core::LossCase::kSecondClientFlight, 0, &wfc, &iack);
  }
  for (const double delta_ms : {20.0, 200.0}) {
    const Measurement wfc =
        delay_cell(tls::kSmallCertificateBytes, sim::Millis(delta_ms), ServerBehavior::kWaitForCertificate);
    const Measurement iack =
        delay_cell(tls::kSmallCertificateBytes, sim::Millis(delta_ms), ServerBehavior::kInstantAck);
    PrintCell(tls::kSmallCertificateBytes, core::LossCase::kNoLoss, sim::Millis(delta_ms), &wfc, &iack);
  }
  std::printf("\nCertificate exceeding the amplification limit (5,113 B):\n");
  PrintCell(tls::kLargeCertificateBytes, core::LossCase::kFirstServerFlightTail, 0, nullptr, nullptr);
  PrintCell(tls::kLargeCertificateBytes, core::LossCase::kSecondClientFlight, 0, nullptr, nullptr);
  for (const double delta_ms : {20.0, 200.0}) {
    const Measurement wfc =
        delay_cell(tls::kLargeCertificateBytes, sim::Millis(delta_ms), ServerBehavior::kWaitForCertificate);
    const Measurement iack =
        delay_cell(tls::kLargeCertificateBytes, sim::Millis(delta_ms), ServerBehavior::kInstantAck);
    PrintCell(tls::kLargeCertificateBytes, core::LossCase::kNoLoss, sim::Millis(delta_ms), &wfc, &iack);
  }
  std::printf("\nNote: the two unmeasured cells combine per-mode loss indices with\n"
              "amplification blocking; the paper derives them analytically (row 2:\n"
              "always IACK). Our engine can measure them too — see EXPERIMENTS.md for\n"
              "the nuance it surfaces (the server-no-sample penalty persists).\n");
  core::MaybeWriteSweepData(loss_ttfb_r);
  core::MaybeWriteSweepData(loss_probes_r);
  core::MaybeWriteSweepData(delay_ttfb_r);
  core::MaybeWriteSweepData(delay_probes_r);
  return 0;
}
