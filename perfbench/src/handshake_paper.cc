// handshake_paper: the paper's testbed grid (§3-§4.2) on the packet engine.
// Unit of work: one handshake, run by RunSweep's default runner.
//
// 8 client profiles x WFC/IACK x RTT {1, 9, 20, 100, 300} ms x
// Δt {0, 200} ms x certificate {1212, 5113} B x HTTP/1.1 and HTTP/3 x
// 10 KB body. The index losses {none, first-server-flight tail, second
// client flight} are defined for 1-RTT handshakes, so they run in 1-RTT
// only; 0-RTT and Retry run lossless. That makes two sweeps. One round is
// one repetition window of both.
#include <memory>
#include <vector>

#include "core/loss_scenarios.h"
#include "engine.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace core = quicer::core;
namespace sim = quicer::sim;

constexpr int kCycle = 32;

void FillAxes(core::SweepSpec& spec) {
  core::SweepAxes& axes = spec.axes;
  axes.clients = {quicer::clients::kAllClients.begin(), quicer::clients::kAllClients.end()};
  axes.behaviors = {quicer::quic::ServerBehavior::kWaitForCertificate,
                    quicer::quic::ServerBehavior::kInstantAck};
  axes.rtts = {sim::Millis(1), sim::Millis(9), sim::Millis(20), sim::Millis(100),
               sim::Millis(300)};
  axes.cert_fetch_delays = {0, sim::Millis(200)};
  axes.certificate_sizes = {quicer::tls::kSmallCertificateBytes,
                            quicer::tls::kLargeCertificateBytes};
  axes.http_versions = {quicer::http::Version::kHttp1, quicer::http::Version::kHttp3};
  spec.base.response_body_bytes = quicer::http::kSmallFileBytes;
  spec.repetitions = kCycle;
  // Every repetition's values are kept, so the digest sees each handshake.
  spec.metrics = {
      {"ttfb_ms", core::MetricMode::kTrace, false, nullptr},
      {"response_ttfb_ms", core::MetricMode::kTrace, false,
       [](const core::ExperimentResult& r) { return r.ResponseTtfbMs(); }},
      {"completed", core::MetricMode::kTrace, false,
       [](const core::ExperimentResult& r) { return r.completed ? 1.0 : 0.0; }},
  };
}

class HandshakePaper final : public Workload {
 public:
  void Setup(std::uint64_t seed) override {
    one_rtt_.name = "handshake_1rtt";
    FillAxes(one_rtt_);
    one_rtt_.axes.modes = {core::HandshakeMode::k1Rtt};
    one_rtt_.axes.losses = {
        {"none", nullptr},
        {"first-server-flight-tail",
         [](const core::ExperimentConfig& c) {
           return core::FirstServerFlightTailLoss(c.behavior, c.certificate_bytes, c.http);
         }},
        {"second-client-flight",
         [](const core::ExperimentConfig& c) { return core::SecondClientFlightLoss(c.client); }},
    };
    one_rtt_.seed_base = DeriveSeed(seed, 1) | 1;
    other_.name = "handshake_0rtt_retry";
    FillAxes(other_);
    other_.axes.modes = {core::HandshakeMode::k0Rtt, core::HandshakeMode::kRetry};
    other_.seed_base = DeriveSeed(seed, 2) | 1;
    {
      Span span("core.sweep.enumerate");
      units_per_round_ = core::Enumerate(one_rtt_).size() + core::Enumerate(other_).size();
    }
  }

  std::size_t cycle() const override { return kCycle; }

  void WarmUp() override {
    RunRound(0);
    RunRound(1);
  }

  RoundOutcome RunRound(std::size_t index) override {
    Digest digest;
    RoundOutcome outcome;
    for (core::SweepSpec* spec : {&one_rtt_, &other_}) {
      spec->shard.rep_begin = index;
      spec->shard.rep_end = index + 1;
      core::SweepResult result;
      {
        Span span("core.run_sweep");
        result = core::RunSweep(*spec, 1);
      }
      if (counting_) counters_.Fold(result);
      AddSweepResult(digest, result);
      outcome.units += result.executed_runs;
    }
    outcome.digest = digest.value();
    return outcome;
  }

  void SetTraced(bool traced) override {
    for (core::SweepSpec* spec : {&one_rtt_, &other_}) {
      spec->runner = traced ? TracedRunner(spec->metrics, &counts_, &counting_)
                            : core::SweepRunner();
    }
  }

  std::size_t counting_rounds() const override { return 2; }
  void BeginCounting() override {
    counting_ = true;
    counters_.Reset();
    counts_ = {};
  }
  void EndCounting() override { counting_ = false; }

  void Report(const SpanTotals& spans, std::uint64_t rounds,
              std::vector<LayerMetric>& out) override {
    const double runs = static_cast<double>(rounds * units_per_round_);
    out.push_back({"sweep.enumerate_s", TotalNs(spans, "core.sweep.enumerate") * 1e-9, "s"});
    out.push_back({"sweep.enumerated_points", static_cast<double>(units_per_round_), "count"});
    out.push_back({"sweep.self_ns_per_run", SelfNs(spans, "core.run_sweep") / runs, "ns"});
    ReportEngine(spans, runs, counters_, counts_, /*with_netem=*/false, out);
  }

 private:
  core::SweepSpec one_rtt_;
  core::SweepSpec other_;
  std::size_t units_per_round_ = 0;
  bool counting_ = false;
  CounterFold counters_;
  EngineCounts counts_;
};

}  // namespace

std::unique_ptr<Workload> MakeHandshakePaper() { return std::make_unique<HandshakePaper>(); }

}  // namespace perfbench
