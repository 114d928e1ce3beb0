// lossy_transfer: 1 MB responses over the four link models of
// examples/netem_gilbert_asym.json (ideal, ge-bursty, lte-asym,
// ge-asym-queued) x WFC/IACK. Unit of work: one 1 MB response transfer.
//
// Set-up writes the scenario file from the seed (link models as in the
// example, the body raised to 1 MB, seed_base from the seed) and loads it
// through core::ParseScenarioFile / ApplyScenario. Every round runs the same
// 16 repetitions of the grid: 128 transfers of up to about 920 datagrams
// each, so per-datagram work (netem loss and queues, ACK ranges, the
// sent-packet ledger, loss detection, congestion control) dominates. On the
// two Gilbert-Elliott links (about 17 % bursty loss both ways) most transfers
// end early, when an endpoint's idle timeout closes the connection before
// the last byte arrives; that outcome is part of the digest like any other.
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "engine.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace core = quicer::core;

/// Repetitions per round. The loss draws make single transfers vary a lot
/// in datagram count, so every round runs the same window: rounds are then
/// equal work, and a seed's window averages over many loss draws. Rounds
/// stay short (tens of ms, like the other workloads') so that the fastest
/// one can fall inside the host's brief fast stretches.
constexpr int kRepsPerRound = 16;
constexpr std::size_t kBodyBytes = 1 << 20;

std::string ScenarioText(std::uint64_t seed_base) {
  return R"({
  "format": "quicer-scenario-v1",
  "scenarios": [
    {
      "sweep": "lossy_transfer",
      "repetitions": )" +
         std::to_string(kRepsPerRound) + R"(,
      "seed_base": ")" +
         std::to_string(seed_base) + R"(",
      "base": {"rtt_ms": 9, "response_body_bytes": )" +
         std::to_string(kBodyBytes) + R"(, "link": {}},
      "axes": {
        "behaviors": ["WFC", "IACK"],
        "links": [
          {"label": "ideal", "link": {}},
          {"label": "ge-bursty",
           "link": {"loss": {"both": {"gilbert": {"p": 0.05, "r": 0.25}}}}},
          {"label": "lte-asym",
           "link": {"loss": {"down": {"gilbert": {"p": 0.02, "r": 0.5}}},
                    "path": {"up_bps": 2000000, "down_bps": 20000000,
                             "up_delay_ms": 25, "down_delay_ms": 15,
                             "down_jitter_ms": 3}}},
          {"label": "ge-asym-queued",
           "link": {"loss": {"both": {"gilbert": {"p": 0.05, "r": 0.25}}},
                    "queue": {"down": {"depth_pkts": 8}},
                    "path": {"up_bps": 2000000, "down_bps": 20000000,
                             "up_delay_ms": 25, "down_delay_ms": 15}}}
        ]
      },
      "metrics": [
        {"name": "response_ttfb_ms", "mode": "trace", "exclude_negative": false},
        {"name": "response_complete_ms", "mode": "trace", "exclude_negative": false}
      ]
    }
  ]
}
)";
}

class LossyTransfer final : public Workload {
 public:
  void Setup(std::uint64_t seed) override {
    // The live spec the scenario's labels resolve against: its metric
    // extractors are the only part a scenario file cannot carry.
    spec_.name = "lossy_transfer";
    spec_.metrics = {
        {"response_ttfb_ms", core::MetricMode::kTrace, false,
         [](const core::ExperimentResult& r) { return r.ResponseTtfbMs(); }},
        {"response_complete_ms", core::MetricMode::kTrace, false,
         [](const core::ExperimentResult& r) {
           return r.client.response_complete < 0 ? -1.0
                                                 : quicer::sim::ToMillis(r.client.response_complete);
         }},
    };
    const std::string text = ScenarioText(DeriveSeed(seed, 1) | 1);
    std::string error;
    {
      Span span("core.scenario.parse");
      std::optional<std::vector<core::Scenario>> scenarios = core::ParseScenarioFile(text, &error);
      if (!scenarios || scenarios->size() != 1 || !core::ApplyScenario(scenarios->front(), spec_, &error)) {
        throw std::runtime_error("scenario rejected: " + error);
      }
    }
    {
      Span span("core.sweep.enumerate");
      units_per_round_ = core::Enumerate(spec_).size() * kRepsPerRound;
    }
  }

  std::size_t cycle() const override { return 1; }

  /// One round fills the pools and arenas; four make a set-up last about
  /// 0.4 s, so set-up samples average over the host's sub-second speed
  /// swings (one-round set-ups of about 0.1 s spread 24-46 % across runs).
  void WarmUp() override {
    for (int i = 0; i < 4; ++i) RunRound(0);
  }

  RoundOutcome RunRound(std::size_t /*index*/) override {
    core::SweepResult result;
    {
      Span span("core.run_sweep");
      result = core::RunSweep(spec_, 1);
    }
    if (counting_) counters_.Fold(result);
    Digest digest;
    AddSweepResult(digest, result);
    return {digest.value(), result.executed_runs};
  }

  void SetTraced(bool traced) override {
    spec_.runner = traced ? TracedRunner(spec_.metrics, &counts_, &counting_) : core::SweepRunner();
  }

  std::size_t counting_rounds() const override { return 1; }
  void BeginCounting() override {
    counting_ = true;
    counters_.Reset();
    counts_ = {};
  }
  void EndCounting() override { counting_ = false; }

  void Report(const SpanTotals& spans, std::uint64_t rounds,
              std::vector<LayerMetric>& out) override {
    out.push_back({"scenario.parse_s", TotalNs(spans, "core.scenario.parse") * 1e-9, "s"});
    ReportEngine(spans, static_cast<double>(rounds * units_per_round_), counters_, counts_,
                 /*with_netem=*/true, out);
  }

 private:
  core::SweepSpec spec_;
  std::size_t units_per_round_ = 0;
  bool counting_ = false;
  CounterFold counters_;
  EngineCounts counts_;
};

}  // namespace

std::unique_ptr<Workload> MakeLossyTransfer() { return std::make_unique<LossyTransfer>(); }

}  // namespace perfbench
