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
//     ...            // bench body; `ctx` is the BenchContext; returns an
//   }                // int exit code
//
// The bench bodies are compiled once, into an object library that
// bench_suite and the grid round-trip test link in full, so every static
// registrar runs.
#pragma once

#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "core/sweep.h"

namespace quicer::bench {

/// Suite-wide options handed to every bench body, replacing the former
/// QUICER_BENCH_SCALE / QUICER_BENCH_PROGRESS environment plumbing.
struct BenchContext {
  /// Repetition multiplier for experiment-driven sweeps (--scale; the
  /// paper's grids correspond to 4). Scaled runs also widen RTT/Δt axes.
  int scale = 1;
  /// Stream per-sweep progress lines to stderr (--progress).
  bool progress = false;
  /// Suite-wide wall-clock ceiling in seconds, 0 = unlimited
  /// (--budget-seconds). Each sweep receives the budget *remaining* at its
  /// start, so the whole suite lands under one ceiling.
  double budget_seconds = 0.0;
  /// When the suite started, for the budget.
  std::chrono::steady_clock::time_point suite_start = std::chrono::steady_clock::now();
  /// Grid subset this process executes (--shard=i/N, --points=ids and/or
  /// --rep-range=a:b).
  core::SweepShard shard;
  /// When non-empty, only the sweep with this spec name executes; sibling
  /// sweeps of the same bench enumerate but select nothing. The work-queue
  /// worker targets one (bench, sweep) pair per unit.
  std::string sweep_filter;
  /// When set, every sweep enumerates its grid into this sink instead of
  /// executing (the work-queue init phase and --points validation).
  core::SweepEnumerateSink enumerate;
  /// Extra per-point observer, chained before the --progress printer. The
  /// work-queue worker refreshes its lease heartbeat here.
  core::SweepObserver observer;
  /// When set, applied to every tuned spec right before execution (after
  /// --scale and the other context options). The --grid workflow overwrites
  /// the compiled-in grid data with a scenario file's here — the hook
  /// itself decides which sweep names it touches.
  std::function<void(core::SweepSpec&)> rewrite;
  /// When non-empty, every run of every executed sweep writes its qlog
  /// trace pair under this directory (--qlog-dir; forwarded into
  /// SweepSpec::qlog_dir by the context tuner).
  std::string qlog_dir;

  /// True when a scaled run should also widen its RTT/Δt axes.
  bool dense_axes() const { return scale > 1; }
  /// Seconds left of the suite budget (0 = unlimited). Once the budget is
  /// exhausted this stays at a tiny positive value, so subsequent sweeps
  /// budget-skip all of their points instead of running unbounded.
  double RemainingBudgetSeconds() const;
};

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
