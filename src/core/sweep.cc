#include "core/sweep.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <utility>

#include "core/csv.h"
#include "core/json.h"
#include "core/scenario.h"
#include "core/thread_pool.h"
#include "obs/telemetry.h"
#include "qlog/qlog_json.h"

namespace quicer::core {
namespace {

/// Microseconds elapsed since `since` (for the sweep phase counters).
// lint:allow(ND002): wall-clock phase timers measure the engine, never a run
std::uint64_t MicrosSince(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - since)  // lint:allow(ND002): phase timer
          .count());
}

/// Writes the client and server qlog traces of one repetition. File names
/// are unique per (sweep, point, repetition), so parallel repetitions never
/// contend and a run's qlog set is identical no matter the thread count.
void WriteQlogPair(const std::string& dir, const std::string& sweep,
                   std::size_t point_index, int rep,
                   const quic::ClientConnection& client,
                   const quic::ServerConnection& server) {
  const std::string stem = dir + "/" + sweep + "_p" + std::to_string(point_index) +
                           "_r" + std::to_string(rep) + "_";
  qlog::JsonOptions options;
  options.vantage = "client";
  std::ofstream(stem + "client.qlog", std::ios::binary)
      << qlog::ToJsonSeq(client.trace(), options);
  options.vantage = "server";
  std::ofstream(stem + "server.qlog", std::ios::binary)
      << qlog::ToJsonSeq(server.trace(), options);
}

template <typename T>
std::vector<std::optional<T>> AxisOrDefault(const std::vector<T>& axis) {
  if (axis.empty()) return {std::nullopt};
  std::vector<std::optional<T>> out;
  out.reserve(axis.size());
  for (const T& v : axis) out.emplace_back(v);
  return out;
}

/// All combinations of the extra axes, outermost first, in declaration
/// order. No extras yields the single empty combination.
std::vector<std::vector<std::pair<std::string, SweepAxisValue>>> EnumerateExtras(
    const std::vector<SweepExtraAxis>& extras) {
  std::vector<std::vector<std::pair<std::string, SweepAxisValue>>> combos = {{}};
  for (const SweepExtraAxis& axis : extras) {
    if (axis.values.empty()) continue;
    std::vector<std::vector<std::pair<std::string, SweepAxisValue>>> next;
    next.reserve(combos.size() * axis.values.size());
    for (const auto& combo : combos) {
      for (const SweepAxisValue& value : axis.values) {
        auto extended = combo;
        extended.emplace_back(axis.name, value);
        next.push_back(std::move(extended));
      }
    }
    combos = std::move(next);
  }
  return combos;
}

/// The metric set a spec actually runs with: spec.metrics, or the single
/// default TtfbMs summary metric.
std::vector<MetricSpec> ResolveMetrics(const SweepSpec& spec) {
  if (!spec.metrics.empty()) return spec.metrics;
  return {MetricSpec{}};
}

}  // namespace

std::string_view ToString(MetricMode mode) {
  switch (mode) {
    case MetricMode::kSummary: return "summary";
    case MetricMode::kTrace: return "trace";
  }
  return "?";
}

bool SweepShard::Contains(std::size_t point_id) const {
  return count <= 1 || point_id % count == index;
}

std::pair<std::size_t, std::size_t> SweepShard::RepWindow(std::size_t repetitions) const {
  const std::size_t begin = std::min(rep_begin, repetitions);
  const std::size_t end =
      rep_end == 0 ? repetitions : std::min(std::max(rep_end, begin), repetitions);
  return {begin, end};
}

const SweepAxisValue* SweepPoint::Extra(std::string_view axis) const {
  for (const auto& [name, value] : extras) {
    if (name == axis) return &value;
  }
  return nullptr;
}

std::string SweepPoint::ExtrasLabel() const {
  std::string out;
  for (const auto& [name, value] : extras) {
    if (!out.empty()) out += '|';
    out += name;
    out += '=';
    out += value.label;
  }
  return out;
}

std::string SweepPoint::ExportExtrasLabel() const {
  std::string out;
  if (link != "default") out = "link=" + link;
  const std::string extras_label = ExtrasLabel();
  if (!extras_label.empty()) {
    if (!out.empty()) out += '|';
    out += extras_label;
  }
  return out;
}

std::string SweepPoint::Key() const {
  std::string out = client;
  for (const std::string* part : {&http, &behavior, &mode, &loss, &variant, &link}) {
    out += '|';
    out += *part;
  }
  out += '|';
  out += ExtrasLabel();
  out += '|' + JsonNumber(rtt_ms) + '|' + JsonNumber(delta_ms) + '|' +
         std::to_string(certificate_bytes);
  return out;
}

double MetricSeries::Median() const {
  if (mode == MetricMode::kTrace) return stats::Median(trace);
  return summary.Median();
}

stats::Summary MetricSeries::Summarize() const {
  if (mode == MetricMode::kSummary) return summary.Summarize();
  stats::Accumulator acc(std::max<std::size_t>(trace.size(), 1));
  for (double v : trace) acc.Add(v);
  return acc.Summarize();
}

const MetricSeries* PointSummary::Metric(std::string_view name) const {
  for (const MetricSeries& series : metrics) {
    if (series.name == name) return &series;
  }
  return nullptr;
}

std::vector<SweepPoint> Enumerate(const SweepSpec& spec) {
  const auto extra_combos = EnumerateExtras(spec.axes.extras);
  const auto https = AxisOrDefault(spec.axes.http_versions);
  const auto certs = AxisOrDefault(spec.axes.certificate_sizes);
  const auto deltas = AxisOrDefault(spec.axes.cert_fetch_delays);
  const auto rtts = AxisOrDefault(spec.axes.rtts);
  const auto modes = AxisOrDefault(spec.axes.modes);
  const auto clients = AxisOrDefault(spec.axes.clients);
  const auto behaviors = AxisOrDefault(spec.axes.behaviors);

  std::vector<SweepLoss> losses = spec.axes.losses;
  if (losses.empty()) {
    SweepLoss keep;
    keep.label = spec.base.loss.empty() ? "none" : "base";
    losses.push_back(std::move(keep));
  }
  std::vector<SweepVariant> variants = spec.axes.variants;
  if (variants.empty()) variants.push_back(SweepVariant{});

  // An empty links axis keeps base.link and contributes one column, like
  // losses: labeled "default" for the legacy pipe, "base" otherwise.
  const bool links_from_axis = !spec.axes.links.empty();
  std::vector<SweepLink> links = spec.axes.links;
  if (links.empty()) {
    SweepLink keep;
    keep.label = spec.base.link.IsDefault() ? "default" : "base";
    links.push_back(std::move(keep));
  }

  std::vector<SweepPoint> points;
  for (const auto& extra : extra_combos) {
   for (const auto& http : https) {
    for (const SweepVariant& variant : variants) {
     for (const SweepLink& link : links) {
     for (const SweepLoss& loss : losses) {
      for (const auto& cert : certs) {
        for (const auto& delta : deltas) {
          for (const auto& rtt : rtts) {
            for (const auto& mode : modes) {
              for (const auto& client : clients) {
                for (const auto& behavior : behaviors) {
                  SweepPoint point;
                  point.config = spec.base;
                  if (http) point.config.http = *http;
                  if (cert) point.config.certificate_bytes = *cert;
                  if (delta) point.config.cert_fetch_delay = *delta;
                  if (rtt) point.config.rtt = *rtt;
                  if (mode) point.config.mode = *mode;
                  if (client) point.config.client = *client;
                  if (behavior) point.config.behavior = *behavior;
                  if (links_from_axis) point.config.link = link.model;
                  if (point.config.http == http::Version::kHttp3 &&
                      !clients::SupportsHttp3(point.config.client)) {
                    continue;
                  }
                  if (variant.mutate) variant.mutate(point.config);
                  if (loss.make) point.config.loss = loss.make(point.config);

                  point.client = std::string(clients::Name(point.config.client));
                  point.http = std::string(http::ToString(point.config.http));
                  point.behavior = std::string(quic::ToString(point.config.behavior));
                  point.mode = std::string(ToString(point.config.mode));
                  point.loss = loss.label;
                  point.variant = variant.label;
                  point.link = link.label;
                  point.extras = extra;
                  point.rtt_ms = sim::ToMillis(point.config.rtt);
                  point.delta_ms = sim::ToMillis(point.config.cert_fetch_delay);
                  point.certificate_bytes = point.config.certificate_bytes;
                  point.index = points.size();
                  points.push_back(std::move(point));
                }
              }
            }
          }
        }
      }
     }
     }
    }
   }
  }
  return points;
}

const PointSummary* SweepResult::Find(
    const std::function<bool(const SweepPoint&)>& pred) const {
  for (const PointSummary& summary : points) {
    if (pred(summary.point)) return &summary;
  }
  return nullptr;
}

SweepResult RunSweep(const SweepSpec& spec, unsigned max_parallelism) {
  SweepResult result;
  result.name = spec.name;
  result.shard = spec.shard;
  result.repetitions = spec.repetitions > 0 ? spec.repetitions : 0;
  result.reservoir_capacity = spec.reservoir_capacity;
  result.seed_base = spec.seed_base != 0 ? spec.seed_base : spec.base.seed;
  result.seed_stride = spec.seed_stride;
  result.spec_hash = ScenarioHash(spec);

  // Telemetry bracket: attribute everything from here to the end-of-sweep
  // snapshot to this sweep. Sweeps never overlap within a process (benches
  // run serially; RunSweep itself is the parallel unit), so a process-wide
  // reset per sweep is sound.
  const bool telemetry = obs::ProcessEnabled();
  if (telemetry) {
    obs::EnsureThisThread();
    obs::ResetAll();
  }

  const std::vector<MetricSpec> metrics = ResolveMetrics(spec);
  const std::size_t n_metrics = metrics.size();

  const auto enumerate_start = std::chrono::steady_clock::now();  // lint:allow(ND002): phase timer
  std::vector<SweepPoint> points = Enumerate(spec);
  if (telemetry) obs::Count(obs::kSweepEnumerateMicros, MicrosSince(enumerate_start));
  result.points.reserve(points.size());
  for (SweepPoint& point : points) {
    PointSummary summary;
    summary.point = std::move(point);
    summary.metrics.reserve(n_metrics);
    for (const MetricSpec& metric : metrics) {
      MetricSeries series;
      series.name = metric.name;
      series.mode = metric.mode;
      if (metric.mode == MetricMode::kSummary) {
        series.summary = stats::Accumulator(spec.reservoir_capacity);
      }
      summary.metrics.push_back(std::move(series));
    }
    result.points.push_back(std::move(summary));
  }

  // The execute phase covers only the shard's points; the others keep their
  // metadata and empty series (executed == false) so partial files carry
  // the full grid for merge-time validation.
  std::vector<std::size_t> selected;
  selected.reserve(result.points.size());
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    if (spec.shard.Contains(i)) selected.push_back(i);
  }

  const std::size_t reps =
      spec.repetitions > 0 ? static_cast<std::size_t>(spec.repetitions) : 0;
  // The repetition window this shard executes of every selected point.
  const std::pair<std::size_t, std::size_t> window = spec.shard.RepWindow(reps);
  const std::size_t win_begin = window.first;
  const std::size_t win_end = window.second;
  const std::size_t win = win_end - win_begin;
  if (win == 0 || selected.empty()) return result;

  SweepRunner runner = spec.runner;
  if (!runner) {
    // The default experiment runner: one RunExperiment per repetition, each
    // MetricSpec's extractor applied to the result. With a qlog_dir the run
    // captures full traces and writes one client + one server qlog per
    // repetition; capture changes no run behaviour, so metric values (and
    // therefore exports) are identical either way.
    const std::string qlog_dir = spec.qlog_dir;
    const std::string sweep_name = spec.name;
    if (!qlog_dir.empty()) std::filesystem::create_directories(qlog_dir);
    runner = [metrics, qlog_dir, sweep_name](const SweepRunContext& ctx) {
      ExperimentConfig run = ctx.point.config;
      run.seed = ctx.seed;
      ExperimentResult experiment;
      if (qlog_dir.empty()) {
        experiment = RunExperiment(run);
      } else {
        run.capture_qlog = true;
        experiment = RunExperiment(
            run, [&](const quic::ClientConnection& client,
                     const quic::ServerConnection& server) {
              WriteQlogPair(qlog_dir, sweep_name, ctx.point.index, ctx.repetition,
                            client, server);
            });
      }
      std::vector<double> values;
      values.reserve(metrics.size());
      for (const MetricSpec& metric : metrics) {
        values.push_back(metric.extract ? metric.extract(experiment) : experiment.TtfbMs());
      }
      return values;
    };
  }

  const std::uint64_t seed_base = result.seed_base;
  const auto start = std::chrono::steady_clock::now();  // lint:allow(ND002): phase timer

  // Transient per-point value slots: allocated when the point's first
  // repetition arrives, filled by (point × block of repetitions) jobs in any
  // order, folded into the point's series in repetition order by the worker
  // that completes the point, then released — memory tracks the set of
  // in-flight points, not the whole grid (a 100k-repetition scan sweep would
  // otherwise zero-fill every point's slots up front).
  struct PointState {
    std::vector<double> slots;
    std::once_flag init;
    std::atomic<std::size_t> remaining{0};
    std::size_t memo = 0;  // index into `memos`
  };
  // The runner's memo: one per point, or one per memo key, released when
  // the last selected point sharing it folds.
  struct MemoSlot {
    PointMemo memo;
    std::atomic<std::size_t> points{0};
  };
  std::vector<PointState> states(selected.size());
  for (std::size_t si = 0; si < selected.size(); ++si) {
    states[si].remaining.store(win, std::memory_order_relaxed);
    states[si].memo = si;
  }

  // With a memo key, the points are grouped by key and the jobs ordered by
  // each point's rank within its group (stable, so ties keep point order):
  // the first jobs start every group once, and distinct keys' make calls
  // run on distinct lanes instead of queueing on one key's call_once.
  // Without a key there is no order vector: job j is point j / blocks.
  std::vector<std::size_t> order;
  std::size_t memo_count = selected.size();
  if (spec.memo_key) {
    std::map<std::string, std::size_t> group_of;
    std::vector<std::size_t> group_size;
    std::vector<std::size_t> rank(selected.size());
    for (std::size_t si = 0; si < selected.size(); ++si) {
      const auto [it, added] =
          group_of.try_emplace(spec.memo_key(result.points[selected[si]].point),
                               group_size.size());
      if (added) group_size.push_back(0);
      states[si].memo = it->second;
      rank[si] = group_size[it->second]++;
    }
    memo_count = group_size.size();
    order.resize(selected.size());
    for (std::size_t si = 0; si < selected.size(); ++si) order[si] = si;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) { return rank[a] < rank[b]; });
  }
  std::vector<MemoSlot> memos(memo_count);
  for (const PointState& state : states) {
    memos[state.memo].points.fetch_add(1, std::memory_order_relaxed);
  }

  std::mutex progress_mutex;
  SweepProgress progress;
  progress.sweep = result.name;
  progress.points_total = selected.size();
  progress.runs_total = selected.size() * win;

  // A job runs a block of consecutive repetitions of one point, so its
  // dispatch and atomics are paid once per block: a filtered-out scan
  // repetition costs about as much as one job's overhead. Blocks stay small
  // enough that every lane still gets at least 64 jobs to balance with.
  const std::size_t total = selected.size() * win;
  ThreadPool& pool = ThreadPool::Global();
  const std::size_t block = std::clamp<std::size_t>(
      total / (std::size_t{pool.Lanes(max_parallelism)} * 64), 1, 1024);
  const std::size_t blocks_per_point = (win + block - 1) / block;
  pool.ParallelFor(
      selected.size() * blocks_per_point,
      [&](std::size_t j) {
        if (telemetry) obs::EnsureThisThread();
        const std::size_t job_point = j / blocks_per_point;
        const std::size_t si = order.empty() ? job_point : order[job_point];
        const std::size_t first = (j % blocks_per_point) * block;
        const std::size_t len = std::min(block, win - first);
        PointState& state = states[si];
        MemoSlot& memo = memos[state.memo];
        PointSummary& summary = result.points[selected[si]];

        std::call_once(state.init, [&] { state.slots.assign(win * n_metrics, 0.0); });
        for (std::size_t r = first; r < first + len; ++r) {
          const std::size_t rep = win_begin + r;
          SweepRunContext ctx{summary.point, static_cast<int>(rep),
                              seed_base + static_cast<std::uint64_t>(rep) * spec.seed_stride,
                              memo.memo};
          const std::vector<double> values = runner(ctx);
          for (std::size_t m = 0; m < n_metrics; ++m) {
            state.slots[r * n_metrics + m] = m < values.size() ? values[m] : NoSample();
          }
        }

        if (state.remaining.fetch_sub(len, std::memory_order_acq_rel) == len) {
          // Last block of this point: fold in repetition order.
          summary.executed = true;
          for (std::size_t r = 0; r < win; ++r) {
            for (std::size_t m = 0; m < n_metrics; ++m) {
              const double v = state.slots[r * n_metrics + m];
              MetricSeries& series = summary.metrics[m];
              if (std::isnan(v)) {
                ++series.skipped;
              } else if (metrics[m].exclude_negative && v < 0.0) {
                ++series.aborted;
              } else if (series.mode == MetricMode::kTrace) {
                series.trace.push_back(v);
              } else {
                series.summary.Add(v);
              }
            }
          }
          state.slots.clear();
          state.slots.shrink_to_fit();
          if (memo.points.fetch_sub(1, std::memory_order_acq_rel) == 1) memo.memo.Release();

          std::lock_guard<std::mutex> lock(progress_mutex);
          ++progress.points_completed;
          progress.runs_completed += win;
          if (spec.observer) {
            progress.elapsed_seconds =
                std::chrono::duration<double>(std::chrono::steady_clock::now() - start)  // lint:allow(ND002): progress wall time
                    .count();
            progress.runs_per_second =
                progress.elapsed_seconds > 0.0
                    ? static_cast<double>(progress.runs_completed) / progress.elapsed_seconds
                    : 0.0;
            spec.observer(progress);
          }
        }
      },
      max_parallelism);

  result.total_runs = total;
  result.executed_runs = progress.runs_completed;

  if (telemetry) {
    obs::Count(obs::kSweepExecuteMicros, MicrosSince(start));
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();  // lint:allow(ND002): telemetry wall time
    const auto snapshot = obs::Snapshot();
    result.telemetry.enabled = true;
    result.telemetry.wall_seconds = wall;
    for (std::size_t i = 0; i < obs::kCounterCount; ++i) {
      if (snapshot[i] != 0) {
        result.telemetry.counters.emplace_back(obs::Descriptors()[i].name, snapshot[i]);
      }
    }
    obs::AppendSweepRecord(TelemetryRecordOf(result, obs::CurrentBench()));
  }
  return result;
}

obs::SweepRecord TelemetryRecordOf(const SweepResult& result, std::string bench) {
  obs::SweepRecord record;
  record.bench = std::move(bench);
  record.sweep = result.name;
  record.wall_seconds = result.telemetry.wall_seconds;
  record.executed_runs = result.executed_runs;
  record.counters = result.telemetry.counters;
  return record;
}

std::optional<SweepResult> MergeSweepResults(const std::vector<SweepResult>& partials,
                                             std::string* error) {
  const auto merge_start = std::chrono::steady_clock::now();  // lint:allow(ND002): phase timer
  auto fail = [error](std::string message) -> std::optional<SweepResult> {
    if (error != nullptr) *error = std::move(message);
    return std::nullopt;
  };
  if (partials.empty()) return fail("no partial results to merge");

  const SweepResult& first = partials.front();
  for (const SweepResult& partial : partials) {
    if (partial.name != first.name) {
      return fail("sweep name mismatch: '" + partial.name + "' vs '" + first.name + "'");
    }
    if (partial.points.size() != first.points.size()) {
      return fail("grid size mismatch in sweep '" + first.name + "': " +
                  std::to_string(partial.points.size()) + " vs " +
                  std::to_string(first.points.size()) + " points");
    }
    if (partial.repetitions != first.repetitions ||
        partial.reservoir_capacity != first.reservoir_capacity ||
        partial.seed_base != first.seed_base || partial.seed_stride != first.seed_stride) {
      return fail("spec fingerprint mismatch in sweep '" + first.name +
                  "' (repetitions / reservoir / seed schedule differ)");
    }
    // The content-hash covers everything the fingerprint above cannot see —
    // base config, axis values, metric set.
    if (partial.spec_hash != first.spec_hash) {
      return fail("spec content-hash mismatch in sweep '" + first.name + "': " +
                  ScenarioHashHex(partial.spec_hash) + " vs " +
                  ScenarioHashHex(first.spec_hash) +
                  " — the partials were produced from different grid definitions");
    }
    for (std::size_t i = 0; i < partial.points.size(); ++i) {
      if (partial.points[i].point.Key() != first.points[i].point.Key()) {
        return fail("point " + std::to_string(i) + " of sweep '" + first.name +
                    "' differs between partials: '" + partial.points[i].point.Key() +
                    "' vs '" + first.points[i].point.Key() + "'");
      }
      if (partial.points[i].metrics.size() != first.points[i].metrics.size()) {
        return fail("metric count mismatch at point " + std::to_string(i) + " of sweep '" +
                    first.name + "'");
      }
      for (std::size_t m = 0; m < partial.points[i].metrics.size(); ++m) {
        const MetricSeries& a = partial.points[i].metrics[m];
        const MetricSeries& b = first.points[i].metrics[m];
        if (a.name != b.name || a.mode != b.mode) {
          return fail("metric " + std::to_string(m) + " of sweep '" + first.name +
                      "' differs between partials: " + a.name + "/" +
                      std::string(ToString(a.mode)) + " vs " + b.name + "/" +
                      std::string(ToString(b.mode)));
        }
      }
    }
  }

  // Fold partials in ascending repetition-window order (stable, so the
  // caller's order decides between whole-point partials): the windows of a
  // split point then concatenate in repetition order no matter how the
  // partial files were globbed.
  std::vector<const SweepResult*> ordered;
  ordered.reserve(partials.size());
  for (const SweepResult& partial : partials) ordered.push_back(&partial);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const SweepResult* a, const SweepResult* b) {
                     return a->shard.rep_begin < b->shard.rep_begin;
                   });

  SweepResult merged = first;
  merged.shard = SweepShard{};
  const std::size_t reps =
      merged.repetitions > 0 ? static_cast<std::size_t>(merged.repetitions) : 0;
  std::size_t covered_runs = 0;
  std::vector<std::size_t> missing;
  for (std::size_t i = 0; i < merged.points.size(); ++i) {
    PointSummary& dst = merged.points[i];
    dst.executed = false;
    // Fresh empty series; every executing partial folds in via Merge /
    // trace concatenation, in window order.
    for (MetricSeries& series : dst.metrics) {
      series.aborted = 0;
      series.skipped = 0;
      series.trace.clear();
      if (series.mode == MetricMode::kSummary) {
        series.summary = stats::Accumulator(merged.reservoir_capacity);
      }
    }
    // Windows arrive in ascending begin order, so a repetition folded twice
    // shows as a window starting below the end of the previous one.
    std::pair<std::size_t, std::size_t> previous{0, 0};
    for (const SweepResult* partial : ordered) {
      const PointSummary& src = partial->points[i];
      if (!src.executed) continue;
      const std::pair<std::size_t, std::size_t> window = partial->shard.RepWindow(reps);
      if (window.first < previous.second) {
        return fail("sweep '" + merged.name + "': point " + std::to_string(i) +
                    " repetitions [" + std::to_string(window.first) + ", " +
                    std::to_string(std::min(window.second, previous.second)) +
                    ") are covered twice (windows [" + std::to_string(previous.first) + ", " +
                    std::to_string(previous.second) + ") and [" +
                    std::to_string(window.first) + ", " + std::to_string(window.second) +
                    "))");
      }
      previous = window;
      covered_runs += window.second - window.first;
      dst.executed = true;
      for (std::size_t m = 0; m < dst.metrics.size(); ++m) {
        MetricSeries& series = dst.metrics[m];
        const MetricSeries& from = src.metrics[m];
        series.aborted += from.aborted;
        series.skipped += from.skipped;
        if (series.mode == MetricMode::kTrace) {
          series.trace.insert(series.trace.end(), from.trace.begin(), from.trace.end());
        } else {
          series.summary.Merge(from.summary);
        }
      }
    }
    if (!dst.executed) missing.push_back(i);
  }
  if (!missing.empty()) {
    std::string ids;
    for (std::size_t id : missing) {
      if (!ids.empty()) ids += ',';
      ids += std::to_string(id);
    }
    return fail("sweep '" + merged.name + "': points " + ids +
                " executed in no partial");
  }

  merged.total_runs = merged.points.size() * reps;
  merged.executed_runs = covered_runs;

  // Fold telemetry across partials: wall times sum (total compute spent);
  // counters fold by their registered merge mode, names unknown to this
  // binary as sums. The merge pass itself is accounted directly into the
  // folded counters — a merge process need not have telemetry enabled.
  merged.telemetry = SweepTelemetry{};
  for (const SweepResult* partial : ordered) {
    if (!partial->telemetry.enabled) continue;
    merged.telemetry.enabled = true;
    merged.telemetry.wall_seconds += partial->telemetry.wall_seconds;
    for (const auto& [name, value] : partial->telemetry.counters) {
      auto it = std::find_if(merged.telemetry.counters.begin(),
                             merged.telemetry.counters.end(),
                             [&](const auto& entry) { return entry.first == name; });
      if (it == merged.telemetry.counters.end()) {
        merged.telemetry.counters.emplace_back(name, value);
      } else if (obs::MergeModeForName(name) == obs::MergeMode::kMax) {
        it->second = std::max(it->second, value);
      } else {
        it->second += value;
      }
    }
  }
  if (merged.telemetry.enabled) {
    const std::uint64_t micros = MicrosSince(merge_start);
    const std::string merge_counter = obs::Describe(obs::kSweepMergeMicros).name;
    auto it = std::find_if(merged.telemetry.counters.begin(),
                           merged.telemetry.counters.end(),
                           [&](const auto& entry) { return entry.first == merge_counter; });
    if (it == merged.telemetry.counters.end()) {
      merged.telemetry.counters.emplace_back(merge_counter, micros);
    } else {
      it->second += micros;
    }
  }
  return merged;
}

const std::vector<std::string>& SweepCsvHeader() {
  static const std::vector<std::string> header = {
      "sweep",    "point",   "metric",  "metric_mode", "client",   "http",
      "behavior", "mode",    "loss",    "variant",     "extras",   "rtt_ms",
      "delta_ms", "cert_bytes", "count", "aborted",    "skipped",  "min",
      "p25",      "median",  "p75",     "max",         "mean",     "stddev"};
  return header;
}

void WriteSweepCsv(const SweepResult& result, CsvWriter& writer) {
  for (const PointSummary& summary : result.points) {
    for (const MetricSeries& series : summary.metrics) {
      const stats::Summary s = series.Summarize();
      writer.TextRow({result.name, std::to_string(summary.point.index), series.name,
                      std::string(ToString(series.mode)), summary.point.client,
                      summary.point.http, summary.point.behavior, summary.point.mode,
                      summary.point.loss, summary.point.variant,
                      summary.point.ExportExtrasLabel(),
                      JsonNumber(summary.point.rtt_ms), JsonNumber(summary.point.delta_ms),
                      std::to_string(summary.point.certificate_bytes),
                      std::to_string(s.count), std::to_string(series.aborted),
                      std::to_string(series.skipped), JsonNumber(s.min), JsonNumber(s.p25),
                      JsonNumber(s.median), JsonNumber(s.p75), JsonNumber(s.max),
                      JsonNumber(s.mean), JsonNumber(s.stddev)});
    }
  }
}

std::string SweepResultJson(const SweepResult& result) {
  std::string out = "{\n  \"sweep\": \"" + JsonEscape(result.name) + "\",\n";
  const auto number = [&out](std::string_view key, double v) {
    out += key;
    AppendJsonNumber(out, v);
  };
  out += "  \"total_runs\": " + std::to_string(result.total_runs) + ",\n";
  out += "  \"executed_runs\": " + std::to_string(result.executed_runs) + ",\n";
  out += "  \"points\": [\n";
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    const PointSummary& summary = result.points[i];
    out += "    {\"point\": " + std::to_string(summary.point.index);
    out += ", \"client\": \"" + JsonEscape(summary.point.client) + "\"";
    out += ", \"http\": \"" + JsonEscape(summary.point.http) + "\"";
    out += ", \"behavior\": \"" + JsonEscape(summary.point.behavior) + "\"";
    out += ", \"mode\": \"" + JsonEscape(summary.point.mode) + "\"";
    out += ", \"loss\": \"" + JsonEscape(summary.point.loss) + "\"";
    out += ", \"variant\": \"" + JsonEscape(summary.point.variant) + "\"";
    // Emitted only off the default so every legacy export stays
    // byte-identical (the conditional-extras precedent below).
    if (summary.point.link != "default") {
      out += ", \"link\": \"" + JsonEscape(summary.point.link) + "\"";
    }
    if (!summary.point.extras.empty()) {
      out += ", \"extras\": {";
      for (std::size_t e = 0; e < summary.point.extras.size(); ++e) {
        const auto& [name, value] = summary.point.extras[e];
        if (e != 0) out += ", ";
        out += "\"" + JsonEscape(name) + "\": \"" + JsonEscape(value.label) + "\"";
      }
      out += "}";
    }
    number(", \"rtt_ms\": ", summary.point.rtt_ms);
    number(", \"delta_ms\": ", summary.point.delta_ms);
    out += ", \"cert_bytes\": " + std::to_string(summary.point.certificate_bytes);
    out += ", \"metrics\": [";
    for (std::size_t m = 0; m < summary.metrics.size(); ++m) {
      const MetricSeries& series = summary.metrics[m];
      const stats::Summary s = series.Summarize();
      if (m != 0) out += ", ";
      out += "{\"name\": \"" + JsonEscape(series.name) + "\"";
      out += ", \"mode\": \"" + std::string(ToString(series.mode)) + "\"";
      out += ", \"count\": " + std::to_string(s.count);
      out += ", \"aborted\": " + std::to_string(series.aborted);
      out += ", \"skipped\": " + std::to_string(series.skipped);
      number(", \"min\": ", s.min);
      number(", \"p25\": ", s.p25);
      number(", \"median\": ", s.median);
      number(", \"p75\": ", s.p75);
      number(", \"max\": ", s.max);
      number(", \"mean\": ", s.mean);
      number(", \"stddev\": ", s.stddev);
      if (series.mode == MetricMode::kTrace) {
        out += ", \"trace\": [";
        for (std::size_t t = 0; t < series.trace.size(); ++t) {
          if (t != 0) out += ", ";
          AppendJsonNumber(out, series.trace[t]);
        }
        out += "]";
      }
      out += "}";
    }
    out += "]";
    out += i + 1 < result.points.size() ? "},\n" : "}\n";
  }
  out += "  ]\n}\n";
  return out;
}

// WriteSweepData lives in sweep_partial.cc: sharded results write
// partial-result files instead of the final export pair.

}  // namespace quicer::core
