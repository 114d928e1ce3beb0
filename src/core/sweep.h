// Declarative parameter-sweep engine.
//
// Every figure and table in the paper is a sweep: (client implementation ×
// server behavior × handshake mode × RTT × Δt × certificate size × loss
// scenario) at 9-100 seeded repetitions per point — and the measurement
// studies sweep (vantage × CDN × day × hour) grids over the scan layer the
// same way. A bench declares its axes as a SweepSpec; the engine enumerates
// the flat config grid, schedules (point × block of repetitions) jobs
// globally on the shared persistent ThreadPool — not per point, so the tail
// of one point overlaps the head of the next — and folds each repetition's
// metric values into per-point series. The block size follows from the job
// count: total / (lanes × 64), clamped to [1, 1024]. Jobs run in point-id
// order, except that points sharing a memo key (SweepSpec::memo_key) are
// ordered by their rank within the key: the first jobs start every key once,
// so distinct keys' shared work runs on distinct lanes.
//
// Extraction is declarative too: a SweepSpec carries a *set* of MetricSpecs.
// A kSummary metric streams into a stats::Accumulator (count / min / max /
// mean / percentiles, bounded memory); a kTrace metric retains the
// per-repetition vector in repetition order — CDF points (Fig 8), time
// series (Fig 9, repetition index = study hour), and scatter inputs.
//
// Execution is pluggable: repetitions are produced by a SweepRunner. The
// default runner calls core::RunExperiment on the point's config and applies
// each MetricSpec's extractor; custom runners probe the scan layer
// (scan::ProbeRunner / scan::StudyRunner in scan/sweep_runners.h) or
// evaluate closed-form models, so the measurement-study benches declare axes
// like testbed benches do.
//
// Determinism: repetition r of every point uses seed_base + r * seed_stride
// (the schedule of core::RunRepetitions), each value lands in a slot keyed
// by its (repetition, metric) index, and a point's series are folded in
// repetition order by whichever worker completes the point — so summaries
// and traces are bit-identical to a serial run for any thread count.
//
// The engine is split into three point-addressable phases, so a grid can be
// cut across processes or machines and recombined byte-identically:
//
//  * enumerate — Enumerate(spec) assigns every SweepPoint a stable id
//    (SweepPoint::index), derived only from the spec's axes: independent of
//    thread count, shard layout and execution order.
//  * execute — RunSweep(spec) runs the subset selected by spec.shard (a
//    round-robin i-of-N shard and/or a repetition window; the default
//    selects everything) — every selected point, always. Because the seed
//    schedule depends only on the repetition index, any subset reproduces
//    exactly the values the full run would produce for those points (and
//    repetition windows of one point concatenate back losslessly).
//  * merge — MergeSweepResults combines partial results (disjoint or not)
//    into one full result: summary series merge via stats::Accumulator::
//    Merge, trace series concatenate in repetition order, and the merged
//    exports are byte-identical to a single-process run when each point ran
//    wholly in one partial. sweep_partial.h serialises partials to JSON for
//    cross-process merging (the bench_suite --shard / merge workflow).
#pragma once

#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/experiment.h"
#include "stats/accumulator.h"

namespace quicer::obs {
struct SweepRecord;
}  // namespace quicer::obs

namespace quicer::core {

class CsvWriter;

/// One named loss scenario. `make` resolves the pattern against the fully
/// resolved point config, because the paper's deterministic drops depend on
/// the point (behavior, certificate size, client coalescing, HTTP version).
struct SweepLoss {
  std::string label = "none";
  /// Null means "keep base.loss".
  std::function<sim::LossPattern(const ExperimentConfig&)> make;
};

/// A named config mutation — the escape hatch for sweeping knobs that are
/// not first-class axes (server default PTO, §5 tuning flags, ...). Applied
/// after the first-class axes and before the loss pattern is resolved.
struct SweepVariant {
  std::string label = "base";
  /// Null means "leave the config unchanged".
  std::function<void(ExperimentConfig&)> mutate;
};

/// One named link-emulation model (netem::LinkModel): stochastic loss,
/// bottleneck queue, asymmetric path overrides. Unlike losses and variants
/// this axis is pure data — scenario files carry the model structurally,
/// no label resolution against compiled-in closures.
struct SweepLink {
  std::string label = "default";
  netem::LinkModel model;
};

/// One value of a generic labeled axis: a report label plus an opaque
/// integer payload the runner interprets (a scan::Vantage, a scan::Cdn, a
/// scenario index, ...).
struct SweepAxisValue {
  std::string label;
  std::int64_t value = 0;
};

/// A generic axis for dimensions that are not first-class ExperimentConfig
/// knobs (scan vantage, CDN, study day, ...). Extras enumerate outermost, in
/// declaration order, and are carried into every SweepPoint.
struct SweepExtraAxis {
  std::string name;
  std::vector<SweepAxisValue> values;
};

/// Which subset of the enumerated grid an execution covers. The default
/// covers every point (a classic single-process run). A shard of `count`
/// processes executes the points whose stable id is congruent to `index`
/// modulo `count` — round-robin, so dense and sparse grid regions spread
/// evenly. Orthogonally, `rep_begin`/`rep_end` restrict execution to a
/// window of repetition indices, so one huge point's repetitions can be
/// split across processes (--rep-range).
struct SweepShard {
  std::size_t index = 0;
  std::size_t count = 1;
  /// Repetition window [rep_begin, rep_end) executed for every selected
  /// point; rep_end 0 means "to the last repetition". Seeds derive from the
  /// absolute repetition index, so every window runs exactly the values of
  /// an unsplit run. Their merge is bit-identical to the unsplit run while
  /// no window but the first runs more repetitions than the point's
  /// reservoir holds; see MergeSweepResults.
  std::size_t rep_begin = 0;
  std::size_t rep_end = 0;

  /// True when this shard selects the whole grid at full repetitions.
  bool all() const {
    return count <= 1 && rep_begin == 0 && rep_end == 0;
  }
  /// True when the point with stable id `point_id` belongs to this shard.
  bool Contains(std::size_t point_id) const;
  /// The window resolved against a spec's repetition count, clamped to
  /// [0, repetitions): {begin, end} with begin <= end.
  std::pair<std::size_t, std::size_t> RepWindow(std::size_t repetitions) const;
};

/// Axis values to sweep. An empty axis keeps the base config's value and
/// contributes one grid column.
struct SweepAxes {
  std::vector<clients::ClientImpl> clients;
  std::vector<http::Version> http_versions;
  std::vector<quic::ServerBehavior> behaviors;
  std::vector<HandshakeMode> modes;
  std::vector<sim::Duration> rtts;
  std::vector<sim::Duration> cert_fetch_delays;
  std::vector<std::size_t> certificate_sizes;
  std::vector<SweepLoss> losses;
  std::vector<SweepVariant> variants;
  std::vector<SweepLink> links;
  std::vector<SweepExtraAxis> extras;
};

/// How a metric's per-repetition values are aggregated.
enum class MetricMode {
  kSummary,  // stream into a stats::Accumulator (bounded memory)
  kTrace,    // retain the per-repetition vector in repetition order
};

std::string_view ToString(MetricMode mode);

/// One named metric extracted from every repetition of every point.
///
/// Value semantics, applied per metric when the repetition's value arrives:
///  * NaN       — "no sample for this repetition" (a probe that filtered the
///                domain out, a profile without the field); counted in
///                `skipped`, never aggregated. Works in every mode.
///  * negative  — while `exclude_negative` is set, marks the run as aborted:
///                counted in `aborted` but excluded from aggregation (the
///                semantics of the legacy CollectTtfbMs loops). Clear it for
///                metrics where negative values are data (e.g. the -1
///                sentinel of first_pto_period, which Fig 9's time series
///                must keep hour-aligned).
struct MetricSpec {
  std::string name = "ttfb_ms";
  MetricMode mode = MetricMode::kSummary;
  bool exclude_negative = true;
  /// Used by the default experiment runner (null = ExperimentResult::TtfbMs).
  /// Custom runners produce values positionally and ignore it.
  std::function<double(const ExperimentResult&)> extract;
};

/// One fully resolved grid point, with axis labels for reporting.
struct SweepPoint {
  ExperimentConfig config;
  std::string client;
  std::string http;
  std::string behavior;
  std::string mode;
  std::string loss;
  std::string variant;
  /// Label of the links-axis value ("default" when the axis is absent and
  /// the base model is the legacy pipe).
  std::string link = "default";
  /// Resolved extras, one per SweepAxes::extras entry, in axis order.
  std::vector<std::pair<std::string, SweepAxisValue>> extras;
  double rtt_ms = 0.0;
  double delta_ms = 0.0;
  std::size_t certificate_bytes = 0;
  /// Stable point id: the position in the enumerated grid, derived only
  /// from the spec's axes (independent of thread count and shard layout).
  std::size_t index = 0;

  /// The value of the named extra axis at this point, or nullptr.
  const SweepAxisValue* Extra(std::string_view axis) const;
  /// "day=0|vantage=Hamburg, DE" — the CSV/JSON extras key.
  std::string ExtrasLabel() const;
  /// ExtrasLabel with a "link=<label>" segment prefixed when a non-default
  /// link model is selected — the CSV extras column, kept byte-identical
  /// for every sweep that never touches the links axis.
  std::string ExportExtrasLabel() const;
  /// Label fingerprint of the point ("client|http|...|rtt|delta|cert") —
  /// the merge phase's check that two partials enumerate the same grid.
  std::string Key() const;
};

/// A memo owned by RunSweep: one slot per selected point, or one per memo
/// key when SweepSpec::memo_key groups points, shared by every block of
/// those points on any lane. A runner keeps there what it would otherwise
/// work out again on every repetition — a point's resolved extras, a
/// simulation several points read — so a repetition reads it back with one
/// acquire load.
///
/// Contract, the same as for runners: the value may depend only on the
/// point (on the key, when points share one). Get's `make` runs at most once
/// per (RunSweep call, memo), on whichever lane asks first; concurrent
/// callers wait for it (call_once) and then read the same value. A second
/// RunSweep of the same spec computes afresh, and the slot is released when
/// the last selected point sharing it folds. A runner stores one value type
/// per memo: Get does not check it.
class PointMemo {
 public:
  template <typename Make>
  const std::decay_t<std::invoke_result_t<Make&>>& Get(Make&& make) {
    using T = std::decay_t<std::invoke_result_t<Make&>>;
    if (const void* ready = ready_.load(std::memory_order_acquire)) {
      return *static_cast<const T*>(ready);
    }
    std::call_once(once_, [&] {
      auto value = std::make_shared<const T>(make());
      value_ = value;
      ready_.store(value.get(), std::memory_order_release);
    });
    return *static_cast<const T*>(value_.get());
  }

  /// Frees the value. Only once no repetition that reads it can still run.
  void Release() {
    ready_.store(nullptr, std::memory_order_relaxed);
    value_.reset();
  }

 private:
  std::once_flag once_;
  std::shared_ptr<const void> value_;
  std::atomic<const void*> ready_{nullptr};
};

/// Everything a runner needs to produce one repetition of one point.
struct SweepRunContext {
  const SweepPoint& point;
  int repetition = 0;
  /// seed_base + repetition * seed_stride — what the default runner assigns
  /// to the experiment config.
  std::uint64_t seed = 0;
  /// The point's memo for this RunSweep call, shared with the points of the
  /// same memo key (see PointMemo).
  PointMemo& memo;
};

/// Produces one repetition's metric values, aligned positionally with
/// SweepSpec::metrics. A runner may return fewer values than there are
/// metrics: each missing value is NoSample(), so an empty vector (which
/// allocates nothing) means "no sample" for every metric. Runners are
/// called concurrently from pool workers and must be thread-safe;
/// determinism requires the returned values depend only on the context,
/// never on call order.
using SweepRunner = std::function<std::vector<double>(const SweepRunContext&)>;

/// Progress snapshot handed to a SweepObserver after each point completes.
struct SweepProgress {
  std::string_view sweep;
  std::size_t points_total = 0;
  std::size_t points_completed = 0;
  std::size_t runs_total = 0;
  std::size_t runs_completed = 0;
  double elapsed_seconds = 0.0;
  double runs_per_second = 0.0;
};

/// Called after every completed point, serialized by the engine (never
/// concurrently), from whichever worker finished the point.
using SweepObserver = std::function<void(const SweepProgress&)>;

struct SweepSpec {
  /// Short machine name ("fig05", "table2_probes"); names CSV/JSON output.
  std::string name;
  ExperimentConfig base;
  SweepAxes axes;
  int repetitions = 25;

  /// Metrics extracted from each repetition. Empty means the single default
  /// summary metric (TtfbMs, exclude_negative) — the common bench case.
  std::vector<MetricSpec> metrics;

  /// Produces each repetition's values. Null means the experiment runner:
  /// RunExperiment(point config with the scheduled seed), then each
  /// MetricSpec::extract.
  SweepRunner runner;

  /// Points with equal keys share one PointMemo, so work that several points
  /// read (one cluster simulation behind many domain points) runs once per
  /// key per RunSweep. Null gives every point its own memo. Like `runner`
  /// it is code, not data: scenario files and the spec hash never see it.
  std::function<std::string(const SweepPoint&)> memo_key;

  /// Seed schedule: repetition r runs with seed_base + r * seed_stride.
  /// seed_base 0 means "use base.seed".
  std::uint64_t seed_base = 0;
  std::uint64_t seed_stride = 7919;

  /// Per-point accumulator reservoir capacity (percentiles are exact and
  /// scatter samples retained while repetitions stay within it). Raise it to
  /// the repetition count when exact percentiles over large scans matter.
  std::size_t reservoir_capacity = stats::Accumulator::kDefaultReservoirCapacity;

  /// Progress hook; see SweepObserver.
  SweepObserver observer;

  /// Subset of the grid this process executes (default: everything). Points
  /// outside the shard stay in the result with their metadata but empty
  /// series and executed == false.
  SweepShard shard;

  /// When non-empty, the default runner captures a full qlog trace per
  /// repetition (structured events included) and writes
  /// `<dir>/<sweep>_p<point>_r<rep>_{client,server}.qlog` in JSON-SEQ
  /// framing. File names are unique per (point, repetition), so parallel
  /// execution is safe and the output is deterministic for a given seed
  /// regardless of thread count. Custom runners ignore it.
  std::string qlog_dir;
};

/// One metric's aggregated values at one point.
struct MetricSeries {
  std::string name;
  MetricMode mode = MetricMode::kSummary;
  /// Populated in kSummary mode.
  stats::Accumulator summary;
  /// Populated in kTrace mode: retained values in repetition order (aborted
  /// and skipped repetitions removed).
  std::vector<double> trace;
  /// Runs whose value came back negative under exclude_negative.
  std::size_t aborted = 0;
  /// Runs whose value came back NaN ("no sample").
  std::size_t skipped = 0;

  /// Retained values (either mode).
  std::size_t count() const {
    return mode == MetricMode::kTrace ? trace.size() : summary.count();
  }
  bool all_aborted() const { return count() == 0; }
  /// Median of the retained values; works in both modes.
  double Median() const;
  /// Median, or -1 when every run aborted (the convention of the bench
  /// tables).
  double MedianOrNegative() const { return count() == 0 ? -1.0 : Median(); }
  /// Five-number summary in either mode (computed from the trace when
  /// mode == kTrace).
  stats::Summary Summarize() const;
};

struct PointSummary {
  SweepPoint point;
  /// One series per SweepSpec metric, in spec order.
  std::vector<MetricSeries> metrics;
  /// True when this process ran the point's repetitions (false for points
  /// outside the shard).
  bool executed = false;

  /// Series of the named metric, or nullptr.
  const MetricSeries* Metric(std::string_view name) const;
  /// The first (or only) metric — the common single-metric bench case.
  const MetricSeries& primary() const { return metrics.front(); }

  bool all_aborted() const { return primary().all_aborted(); }
  double MedianOrNegative() const { return primary().MedianOrNegative(); }
  /// Primary summary accumulator (feeds the ASCII scatter strips).
  const stats::Accumulator& values() const { return primary().summary; }
  std::size_t aborted() const { return primary().aborted; }
};

/// Runtime-telemetry snapshot attributed to one sweep execution (see
/// src/obs/telemetry.h). Populated by RunSweep only when process telemetry
/// is enabled; carried through partial files and folded by
/// MergeSweepResults so sharded runs merge their telemetry too.
struct SweepTelemetry {
  bool enabled = false;
  /// Wall-clock execute-phase time. Merging *sums* shards' wall times (total
  /// compute spent, not elapsed).
  double wall_seconds = 0.0;
  /// (counter name, value) pairs, non-zero only, registry order. Names this
  /// binary does not know (newer producers) merge as sums.
  std::vector<std::pair<std::string, std::uint64_t>> counters;
};

struct SweepResult {
  std::string name;
  std::vector<PointSummary> points;
  /// Scheduled runs (selected points × repetitions).
  std::size_t total_runs = 0;
  /// Repetitions actually executed: the executed points' repetition
  /// windows (differs from total_runs when a parsed or merged result's
  /// windows cover less than every repetition).
  std::size_t executed_runs = 0;

  /// Execution metadata, carried into partial-result files so the merge
  /// phase can validate that partials come from the same spec.
  SweepShard shard;
  int repetitions = 0;
  std::size_t reservoir_capacity = stats::Accumulator::kDefaultReservoirCapacity;
  std::uint64_t seed_base = 0;
  std::uint64_t seed_stride = 0;

  /// Content-hash of the spec's serializable data (core::ScenarioHash),
  /// stamped by RunSweep, carried through partial files, and required to
  /// agree by the merge phase — partials of two different grid definitions
  /// never mix silently.
  std::uint64_t spec_hash = 0;

  /// Runtime counters attributed to this sweep's execution (empty and
  /// disabled unless the process ran with telemetry on). Never serialized
  /// into the final CSV/JSON exports — those stay byte-identical whether or
  /// not telemetry ran.
  SweepTelemetry telemetry;

  /// True when this result covers a strict subset of the grid by
  /// construction (spec.shard selected a subset). An unsharded run executes
  /// every point, so only a sharded result lacks data.
  bool sharded() const { return !shard.all(); }

  /// First point matching `pred`, or nullptr. Enumeration order is
  /// outermost-to-innermost: extras (declaration order), http, variant,
  /// link, loss, certificate, Δt, RTT, mode, client, behavior.
  const PointSummary* Find(const std::function<bool(const SweepPoint&)>& pred) const;
};

/// Phase 1 — enumerates the flat grid of a spec (no experiments run),
/// dropping (client, HTTP/3) pairs the client cannot run. The position of a
/// point in the returned vector is its stable id.
std::vector<SweepPoint> Enumerate(const SweepSpec& spec);

/// Phase 2 — runs the subset of the grid selected by spec.shard (default:
/// everything) on the shared ThreadPool. `max_parallelism` caps concurrent
/// jobs (0 = whole pool).
SweepResult RunSweep(const SweepSpec& spec, unsigned max_parallelism = 0);

/// Phase 3 — merges partial results of the same spec into one result
/// covering every point executed in any partial. Partials fold in ascending
/// repetition-window order (stable, so the given order decides between
/// whole-point partials): per point, summary series fold via
/// stats::Accumulator::Merge and trace series concatenate in repetition
/// order; aborted/skipped counters add. A point executed by exactly one
/// partial (the --shard workflow) is reproduced bit-identically, so the
/// merged CSV/JSON exports match a single-process run byte for byte. A point
/// split into repetition windows (the --rep-range workflow) follows
/// stats::Accumulator::Merge: bit-identical as long as no window but the
/// first runs more repetitions than the reservoir (reservoir_capacity)
/// holds; past that, count, min and max stay exact, mean and stddev agree
/// only to rounding and percentiles only to the histogram's bin width. Every
/// (point, repetition) folds at most once: a repetition two partials both
/// executed fails the merge. Windows need not tile [0, repetitions) —
/// executed_runs counts the repetitions covered, and a gap is the caller's
/// to reject (MergeSweepPartialFiles does). Returns nullopt and fills
/// `error` when the partials disagree on the spec fingerprint (name, grid,
/// repetitions, seeds, content-hash), fold a repetition twice or leave a
/// point executed nowhere.
std::optional<SweepResult> MergeSweepResults(const std::vector<SweepResult>& partials,
                                             std::string* error = nullptr);

/// The NaN sentinel runners return for "no sample for this repetition".
inline double NoSample() { return std::nan(""); }

/// Column names of the machine-readable exports (one row per point ×
/// metric).
const std::vector<std::string>& SweepCsvHeader();

/// Appends every (point, metric) series as one CSV row (see SweepCsvHeader).
/// Trace series export their five-number summary; the full vectors live in
/// the JSON export.
void WriteSweepCsv(const SweepResult& result, CsvWriter& writer);

/// Serialises the result as a JSON document: one object per point, each with
/// a "metrics" array; kTrace series carry their full "trace" vector.
std::string SweepResultJson(const SweepResult& result);

/// The telemetry report record of `result` (its telemetry, name and
/// executed runs) under the bench label `bench`.
obs::SweepRecord TelemetryRecordOf(const SweepResult& result, std::string bench);

/// Writes the result's machine-readable files into `directory`:
///  * full results — <name>_sweep.csv and <name>_sweep.json;
///  * sharded results — only <name>_sweep.<shard-tag>.json, the
///    partial-result file the merge subcommand ingests (a shard must not
///    clobber the merged export names).
/// Returns true if files were written.
bool WriteSweepData(const SweepResult& result, const std::string& directory);

}  // namespace quicer::core
