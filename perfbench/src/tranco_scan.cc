// tranco_scan: the Top-1M scan (§4.3, Table 1 and Fig 8) on the sweep
// engine. Unit of work: one executed sweep repetition, whether a probe or a
// filtered skip.
//
// Set-up builds a 1M-domain scan::TrancoPopulation. The grid is cut into
// 12 (day, vantage) slices; each slice has a Table 1 sweep (8 CDNs,
// iack_observed, summary mode) and a Fig 8 sweep (5 CDNs, ACK->SH delay,
// trace mode), both run by scan::ProbeRunner with one worker. A round runs
// one slice over one window of 50,000 ranks, as two repetition-window
// shards per sweep that go through the sharded result path:
// SweepPartialJson -> ParseSweepPartialJson -> MergeSweepResults.
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/csv.h"
#include "core/sweep_partial.h"
#include "scan/population.h"
#include "scan/sweep_runners.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace core = quicer::core;
namespace scan = quicer::scan;

constexpr std::size_t kPopulation = 1'000'000;
constexpr std::size_t kDays = 3;
constexpr std::size_t kSlices = kDays * scan::kAllVantages.size();
constexpr std::size_t kWindow = 50'000;
constexpr std::size_t kChunks = kPopulation / kWindow;
/// Rounds before (slice, chunk) pairs repeat: lcm(12, 20).
constexpr std::size_t kCycle = 60;
constexpr std::size_t kProbeBatch = 1000;

/// The two sweeps of one (day, vantage) slice.
struct Slice {
  std::uint64_t day = 0;
  scan::Vantage vantage = scan::Vantage::kHamburg;
  core::SweepSpec table1;
  core::SweepSpec fig08;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

class TrancoScan final : public Workload {
 public:
  void Setup(std::uint64_t seed) override {
    {
      Span span("scan.population.build");
      population_ = std::make_shared<const scan::TrancoPopulation>(kPopulation,
                                                                   DeriveSeed(seed, 1));
    }
    prober_seed_ = DeriveSeed(seed, 2);
    for (std::uint64_t day = 0; day < kDays; ++day) {
      for (scan::Vantage vantage : scan::kAllVantages) {
        Slice s;
        s.day = day;
        s.vantage = vantage;
        const core::SweepExtraAxis day_axis{"day", {{std::to_string(day), static_cast<std::int64_t>(day)}}};
        s.table1.name = "table1";
        s.table1.axes.extras = {day_axis, scan::VantageAxis({vantage}),
                                scan::CdnAxis({scan::kAllCdns.begin(), scan::kAllCdns.end()})};
        s.table1.metrics = {{"iack_observed", core::MetricMode::kSummary, false, nullptr}};
        s.fig08.name = "fig08";
        s.fig08.axes.extras = {day_axis, scan::VantageAxis({vantage}),
                               scan::CdnAxis({scan::Cdn::kAkamai, scan::Cdn::kAmazon,
                                              scan::Cdn::kCloudflare, scan::Cdn::kGoogle,
                                              scan::Cdn::kOthers})};
        s.fig08.metrics = {{"ack_sh_delay_ms", core::MetricMode::kTrace, false, nullptr}};
        for (core::SweepSpec* spec : {&s.table1, &s.fig08}) {
          spec->repetitions = static_cast<int>(kPopulation);
          // Summary accumulators merge exactly (sequential replay) only
          // while every sample is still in the reservoir.
          spec->reservoir_capacity = kWindow;
        }
        slices_.push_back(std::move(s));
      }
    }
    SetTraced(false);
    {
      Span span("core.sweep.enumerate");
      for (const Slice& s : slices_) {
        enumerated_points_ += core::Enumerate(s.table1).size() + core::Enumerate(s.fig08).size();
      }
    }
  }

  std::size_t cycle() const override { return kCycle; }

  void WarmUp() override { RunRound(0); }

  void PrepareRound(std::size_t index) override {
    if (g_tracer == nullptr) return;
    // Probe calls are too short to time one by one inside the sweep, so
    // the traced run times the same probes directly, in fixed batches.
    const Slice& s = slices_[index % kSlices];
    const std::size_t begin = (index % kChunks) * kWindow;
    const scan::Prober prober(prober_seed_);
    const auto& domains = population_->domains();
    for (std::size_t b = begin; b < begin + kWindow; b += kProbeBatch) {
      Span span("scan.prober.probe_batch");
      for (std::size_t r = b; r < b + kProbeBatch; ++r) {
        batch_sink_ += prober.Probe(domains[r], s.vantage, s.day).success ? 1 : 0;
      }
    }
    batched_probes_ += kWindow;
  }

  RoundOutcome RunRound(std::size_t index) override {
    Slice& s = slices_[index % kSlices];
    const std::size_t begin = (index % kChunks) * kWindow;
    Digest digest;
    std::uint64_t units = 0;
    for (core::SweepSpec* spec : {&s.table1, &s.fig08}) {
      const core::SweepResult merged = ShardedRun(*spec, begin);
      AddSweepResult(digest, merged);
      units += merged.points.size() * kWindow;
    }
    return {digest.value(), units};
  }

  void ExtraChecks(const std::string& work_dir, std::uint64_t& attempted,
                   std::uint64_t& failed) override {
    // The merged shards must export the same CSV bytes as one unsharded
    // run of the same window.
    for (std::size_t index : {std::size_t{0}, std::size_t{1}}) {
      Slice& s = slices_[index % kSlices];
      const std::size_t begin = (index % kChunks) * kWindow;
      for (core::SweepSpec* spec : {&s.table1, &s.fig08}) {
        const core::SweepResult merged = ShardedRun(*spec, begin);
        spec->shard.rep_begin = begin;
        spec->shard.rep_end = begin + kWindow;
        const core::SweepResult whole = core::RunSweep(*spec, 1);
        const std::uint64_t units = merged.points.size() * kWindow;
        attempted += units;
        if (WriteCsv(work_dir, "merged", merged) != WriteCsv(work_dir, "unsharded", whole)) {
          failed += units;
        }
      }
    }
  }

  void SetTraced(bool traced) override {
    for (Slice& s : slices_) {
      s.table1.runner = Wrap(scan::ProbeRunner(
          population_, prober_seed_, scan::MatchPointCdn(),
          {[this](const core::SweepPoint&, const scan::Domain&, const scan::ProbeResult& r) {
            CountProbe(r);
            if (!r.success) return core::NoSample();
            return r.iack_observed ? 1.0 : 0.0;
          }}),
          traced);
      s.fig08.runner = Wrap(scan::ProbeRunner(
          population_, prober_seed_, scan::MatchPointCdn(),
          {[this](const core::SweepPoint&, const scan::Domain&, const scan::ProbeResult& r) {
            CountProbe(r);
            if (!r.success || (!r.iack_observed && !r.coalesced)) return core::NoSample();
            return r.ack_sh_delay_ms;
          }}),
          traced);
    }
  }

  std::size_t counting_rounds() const override { return 4; }
  void BeginCounting() override {
    counting_ = true;
    probes_ = successes_ = partial_bytes_ = 0;
  }
  void EndCounting() override { counting_ = false; }

  void Report(const SpanTotals& spans, std::uint64_t rounds,
              std::vector<LayerMetric>& out) override {
    // Every round runs one slice's points over one window.
    const double runs =
        static_cast<double>(rounds * enumerated_points_ / kSlices * kWindow);
    const double per_round = 1e-9 / static_cast<double>(rounds);
    const double counted = static_cast<double>(counting_rounds());
    out.push_back({"population.build_s", TotalNs(spans, "scan.population.build") * 1e-9, "s"});
    out.push_back({"prober.ns_per_probe",
                   TotalNs(spans, "scan.prober.probe_batch") / static_cast<double>(batched_probes_),
                   "ns"});
    out.push_back({"prober.probes", static_cast<double>(probes_), "count"});
    out.push_back({"prober.success_ratio",
                   static_cast<double>(successes_) / static_cast<double>(probes_), "ratio"});
    out.push_back({"sweep.enumerate_s", TotalNs(spans, "core.sweep.enumerate") * 1e-9, "s"});
    out.push_back({"sweep.enumerated_points", static_cast<double>(enumerated_points_), "count"});
    out.push_back({"sweep.runs", runs, "count"});
    out.push_back({"sweep.self_ns_per_run", SelfNs(spans, "core.run_sweep") / runs, "ns"});
    out.push_back({"partial.serialize_s",
                   TotalNs(spans, "core.sweep_partial.serialize") * per_round, "s"});
    out.push_back({"partial.parse_s", TotalNs(spans, "core.sweep_partial.parse") * per_round,
                   "s"});
    out.push_back({"merge_s", TotalNs(spans, "core.sweep.merge") * per_round, "s"});
    out.push_back({"partial.bytes", static_cast<double>(partial_bytes_) / counted, "B"});
  }

 private:
  /// Times every runner call in traced mode; the summed time becomes one
  /// aggregate child span of the enclosing RunSweep span.
  core::SweepRunner Wrap(core::SweepRunner inner, bool traced) {
    if (!traced) return inner;
    return [this, inner = std::move(inner)](const core::SweepRunContext& ctx) {
      const std::int64_t start = NowNs();
      std::vector<double> values = inner(ctx);
      runner_ns_ += NowNs() - start;
      return values;
    };
  }

  void CountProbe(const scan::ProbeResult& r) {
    if (!counting_) return;
    ++probes_;
    if (r.success) ++successes_;
  }

  /// Runs [begin, begin + kWindow) of `spec` as two repetition-window
  /// shards, round-trips both through partial documents and merges them.
  core::SweepResult ShardedRun(core::SweepSpec& spec, std::size_t begin) {
    std::vector<core::SweepResult> partials;
    for (std::size_t half = 0; half < 2; ++half) {
      spec.shard.rep_begin = begin + half * (kWindow / 2);
      spec.shard.rep_end = spec.shard.rep_begin + kWindow / 2;
      core::SweepResult result;
      {
        Span span("core.run_sweep");
        runner_ns_ = 0;
        result = core::RunSweep(spec, 1);
        if (g_tracer != nullptr) g_tracer->AddAggregate("scan.probe_runner", runner_ns_);
      }
      // Counting runs with telemetry on, which adds a block of wall-clock
      // timers to the document. The timed phases carry none, and without it
      // partial.bytes is exact.
      if (counting_) result.telemetry = {};
      std::string json;
      {
        Span span("core.sweep_partial.serialize");
        json = core::SweepPartialJson(result);
      }
      if (counting_) partial_bytes_ += json.size();
      Span span("core.sweep_partial.parse");
      std::string error;
      std::optional<core::SweepResult> parsed = core::ParseSweepPartialJson(json, &error);
      if (!parsed) throw std::runtime_error("partial parse failed: " + error);
      partials.push_back(std::move(*parsed));
    }
    Span span("core.sweep.merge");
    std::string error;
    std::optional<core::SweepResult> merged = core::MergeSweepResults(partials, &error);
    if (!merged) throw std::runtime_error("merge failed: " + error);
    return std::move(*merged);
  }

  static std::string WriteCsv(const std::string& dir, const std::string& tag,
                              const core::SweepResult& result) {
    const std::string name = "tranco_scan_" + tag + "_" + result.name;
    {
      core::CsvWriter writer(dir, name, core::SweepCsvHeader());
      if (!writer.active()) throw std::runtime_error("cannot write CSV into " + dir);
      core::WriteSweepCsv(result, writer);
    }
    const std::string path = dir + "/" + name + ".csv";
    std::string text = ReadFile(path);
    std::remove(path.c_str());
    return text;
  }

  std::shared_ptr<const scan::TrancoPopulation> population_;
  std::uint64_t prober_seed_ = 0;
  std::vector<Slice> slices_;
  std::size_t enumerated_points_ = 0;
  std::int64_t runner_ns_ = 0;
  std::uint64_t batched_probes_ = 0;
  std::uint64_t batch_sink_ = 0;
  bool counting_ = false;
  std::uint64_t probes_ = 0;
  std::uint64_t successes_ = 0;
  std::uint64_t partial_bytes_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeTrancoScan() { return std::make_unique<TrancoScan>(); }

}  // namespace perfbench
