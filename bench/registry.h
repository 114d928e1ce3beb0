// Bench registry: figure benches register themselves by name so one driver
// (bench_suite) can list and run any subset of the paper's figures/tables on
// the shared thread pool. bench_suite is the only entry point; a single
// bench runs as `bench_suite --filter=NAME`.
//
// Suite-wide options (--scale, --progress, --shard, --rep-range) reach the
// benches as an explicit BenchContext argument threaded through the
// registry — not environment variables — so a bench body reads everything it
// needs from its `ctx` parameter.
//
// A bench file contains one or more registrations:
//
//   QUICER_BENCH("fig05", "Figure 5: TTFB under amplification limits") {
//     core::SweepSpec spec;  // name, axes, repetitions, metrics...
//     bench::Scale(spec, ctx);
//     const auto result = bench::Run(spec, ctx);
//     if (!result) return 0;  // sharded run or enumerate pass
//     ...                     // printed analysis of *result
//     return 0;
//   }
//
// `run --grid` runs a bench body only as an enumerate pass: it captures the
// sweep's spec there, applies the scenario to it and hands the applied spec
// to Run itself.
//
// The bench bodies are compiled once, into an object library that
// bench_suite and the grid round-trip test link in full, so every static
// registrar runs.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

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
  /// Grid subset this process executes (--shard=i/N and/or
  /// --rep-range=a:b).
  core::SweepShard shard;
  /// When set, Run executes nothing: it hands every sweep's final spec here
  /// instead (the capture pass behind export-grid and run --grid).
  std::function<void(const core::SweepSpec&)> enumerate;
  /// When non-empty, every run of every executed sweep writes its qlog
  /// trace pair under this directory (--qlog-dir).
  std::string qlog_dir;
  /// When non-empty, every executed sweep writes its exports (the CSV/JSON
  /// pair, or a partial-result file) into this directory (--data-dir).
  std::string data_dir;

  /// True when a scaled run should also widen its RTT/Δt axes.
  bool dense_axes() const { return scale > 1; }
};

/// Runs one sweep under the suite options — the only way a bench body or a
/// `run --grid` scenario executes a sweep. Pass the spec with its final
/// name. In order:
///  1. an enumerate pass hands the spec to `ctx.enumerate` and stops;
///  2. the --progress printer, shard and qlog dir are attached;
///  3. core::RunSweep executes the selected subset;
///  4. the exports are written into `ctx.data_dir` (the final pair, or a
///     partial file with the partial-run note).
/// Returns the result only when the bench's printed analysis may read it: a
/// run of every point. Otherwise the bench returns 0.
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
