// Bench registry: figure benches register themselves by name so one driver
// (bench_suite) can list and run any subset of the paper's figures/tables on
// the shared thread pool. bench_suite is the only entry point; a single
// bench runs as `bench_suite --filter=NAME`.
//
// Suite-wide options (--scale, --progress, --shard, --budget-seconds) reach
// the benches as an explicit BenchContext argument threaded through the
// registry — not environment variables — so a bench body reads everything it
// needs from its `ctx` parameter.
//
// lint:allow-file(ND002): the suite budget clock is wall time by design.
//
// A bench file contains one or more registrations:
//
//   QUICER_BENCH("fig05", "Figure 5: TTFB under amplification limits") {
//     core::SweepSpec spec;  // name, axes, repetitions, metrics...
//     bench::Scale(spec, ctx);
//     const auto result = bench::Run(spec, ctx);
//     if (!result) return 0;  // sharded, grid-driven or enumerate pass
//     ...                     // printed analysis of *result
//     return 0;
//   }
//
// The bench bodies are compiled once, into an object library that
// bench_suite and the grid round-trip test link in full, so every static
// registrar runs.
#pragma once

#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "core/sweep.h"

namespace quicer::bench {

/// Suite-wide options handed to every bench body, replacing the former
/// QUICER_BENCH_SCALE / QUICER_BENCH_PROGRESS environment plumbing. Bench
/// bodies read only `scale` (via Scale and dense_axes); everything else is
/// harness state that Run applies to each sweep.
struct BenchContext {
  /// Repetition multiplier for experiment-driven sweeps (--scale; the
  /// paper's grids correspond to 4). Scaled runs also widen RTT/Δt axes.
  int scale = 1;
  /// Stream per-sweep progress lines to stderr (--progress).
  bool progress = false;
  /// Suite-wide wall-clock ceiling in seconds, 0 = unlimited
  /// (--budget-seconds). Every sweep gets the same deadline, suite_start +
  /// budget_seconds, so the whole suite lands under one ceiling and a spent
  /// budget skips every point of the later sweeps.
  double budget_seconds = 0.0;
  /// When the suite started, for the budget.
  std::chrono::steady_clock::time_point suite_start = std::chrono::steady_clock::now();
  /// Grid subset this process executes (--shard=i/N, --points=ids and/or
  /// --rep-range=a:b).
  core::SweepShard shard;
  /// When non-empty, only the sweep with this name executes; Run skips its
  /// sibling sweeps in the same bench. `run --grid` targets one (bench,
  /// sweep) pair at a time.
  std::string sweep_filter;
  /// When set, Run executes nothing: it hands every sweep's final spec and
  /// grid size here instead (the capture pass behind export-grid, run
  /// --grid and --points validation).
  std::function<void(const core::SweepSpec&, std::size_t point_count)> enumerate;
  /// A grid scenario (--grid): Run overwrites the compiled-in data of the
  /// sweep it names with the scenario's, and exports that sweep without the
  /// bench's printed analysis.
  std::shared_ptr<const core::Scenario> scenario;
  /// When non-empty, every run of every executed sweep writes its qlog
  /// trace pair under this directory (--qlog-dir).
  std::string qlog_dir;
  /// When non-empty, every executed sweep writes its exports (the CSV/JSON
  /// pair, or a partial-result file) into this directory (--data-dir).
  std::string data_dir;

  /// True when a scaled run should also widen its RTT/Δt axes.
  bool dense_axes() const { return scale > 1; }
};

/// Runs one sweep of a bench body under the suite options — the only way a
/// bench executes a sweep. Pass the spec with its final name. In order:
///  1. a `ctx.scenario` naming this sweep overwrites its grid data (a
///     scenario that no longer applies runs and exports nothing);
///  2. an enumerate pass hands the spec and its grid size to
///     `ctx.enumerate` and stops;
///  3. a sibling of `ctx.sweep_filter` stops without running;
///  4. the --progress printer, shard, budget deadline and qlog dir are
///     attached;
///  5. core::RunSweep executes the selected subset;
///  6. the exports are written into `ctx.data_dir` (the final pair, or a
///     partial file) with the partial-run and grid-run notes.
/// Returns the result only when the bench's printed analysis may read it: a
/// full run of the compiled-in grid. Otherwise the bench returns 0.
std::optional<core::SweepResult> Run(core::SweepSpec spec, const BenchContext& ctx);

struct BenchInfo {
  std::string name;         // machine name, e.g. "fig05"
  std::string description;  // one-line human description
  std::function<int(const BenchContext&)> run;
};

class Registry {
 public:
  static Registry& Instance();

  void Add(BenchInfo info);

  /// All registered benches, sorted by name.
  std::vector<BenchInfo> Benches() const;

  /// Benches whose name contains `filter` (empty matches all), sorted.
  std::vector<BenchInfo> Match(const std::string& filter) const;

  const BenchInfo* Find(const std::string& name) const;

 private:
  std::vector<BenchInfo> benches_;
};

struct Registrar {
  Registrar(std::string name, std::string description,
            std::function<int(const BenchContext&)> run);
};

/// Runs one registered bench by exact name; returns its exit code (2 if the
/// name is unknown).
int RunByName(const std::string& name, const BenchContext& context);

#define QUICER_BENCH_CONCAT_(a, b) a##b
#define QUICER_BENCH_CONCAT(a, b) QUICER_BENCH_CONCAT_(a, b)

/// Registers one bench. A file may contain several QUICER_BENCH blocks (the
/// ACK-Delay ablation registers its two sections separately); the line
/// number keeps the registrar symbols distinct. The body sees the suite
/// options as `ctx`.
#define QUICER_BENCH(name_str, description_str)                                         \
  static int QUICER_BENCH_CONCAT(QuicerBenchBody, __LINE__)(                            \
      const ::quicer::bench::BenchContext& ctx);                                        \
  static const ::quicer::bench::Registrar QUICER_BENCH_CONCAT(                          \
      quicer_bench_registrar_, __LINE__){name_str, description_str,                     \
                                         &QUICER_BENCH_CONCAT(QuicerBenchBody,          \
                                                              __LINE__)};               \
  static int QUICER_BENCH_CONCAT(QuicerBenchBody, __LINE__)(                            \
      [[maybe_unused]] const ::quicer::bench::BenchContext& ctx)

}  // namespace quicer::bench
