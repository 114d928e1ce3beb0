// lint:allow-file(ND002): suite budget accounting is wall-clock by design.
#include "registry.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace quicer::bench {

namespace {

/// Prints "points done / total, runs/sec" to stderr (stdout carries the
/// figure tables).
void PrintProgress(const core::SweepProgress& p) {
  std::fprintf(stderr, "[%.*s] %zu/%zu points, %zu runs, %.0f runs/s%s\n",
               static_cast<int>(p.sweep.size()), p.sweep.data(), p.points_completed,
               p.points_total, p.runs_completed, p.runs_per_second,
               p.points_skipped > 0 ? " (budget: some points skipped)" : "");
}

}  // namespace

std::optional<core::SweepResult> Run(core::SweepSpec spec, const BenchContext& ctx) {
  // A scenario file's data (repetitions, axes, base config) wins over
  // --scale and the compiled-in grid.
  const bool grid = ctx.scenario != nullptr && ctx.scenario->sweep == spec.name;
  if (grid) {
    std::string error;
    if (!core::ApplyScenario(*ctx.scenario, spec, &error)) {
      // Validated at load time; a failure here means the compiled grid
      // changed under us. Refuse to run anything rather than run the wrong
      // grid.
      std::fprintf(stderr, "[%s] grid scenario does not apply, nothing run: %s\n",
                   spec.name.c_str(), error.c_str());
      return std::nullopt;
    }
  }
  if (ctx.enumerate) {
    ctx.enumerate(spec, core::EnumerateCount(spec));
    return std::nullopt;
  }
  if (!ctx.sweep_filter.empty() && ctx.sweep_filter != spec.name) return std::nullopt;

  if (ctx.progress) spec.observer = PrintProgress;
  spec.shard = ctx.shard;
  if (ctx.budget_seconds > 0.0) {
    spec.deadline = ctx.suite_start +
                    std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(ctx.budget_seconds));
  }
  spec.qlog_dir = ctx.qlog_dir;
  core::SweepResult result = core::RunSweep(spec);

  const bool wrote = !ctx.data_dir.empty() && core::WriteSweepData(result, ctx.data_dir);
  if (!grid && !result.partial()) return result;
  // Sharded, budget-clipped and grid-driven runs export machine-readable
  // data but skip the bench's printed analysis: its tables would read
  // incomplete series, or points a data-defined grid dropped.
  if (!wrote) {
    std::fprintf(stderr,
                 "[%s] WARNING: %s result NOT exported (set QUICER_DATA_DIR / "
                 "--data-dir)%s\n",
                 result.name.c_str(), result.partial() ? "partial" : "grid-run",
                 result.partial() ? "; the executed points are lost" : "");
  }
  if (!result.partial()) {
    std::printf("[%s] grid run: %zu points, %zu runs — data exported, analysis skipped.\n",
                result.name.c_str(), result.points.size(), result.executed_runs);
    return std::nullopt;
  }
  for (std::size_t id : result.shard.points) {
    if (id >= result.points.size()) {
      std::fprintf(stderr, "[%s] WARNING: --points id %zu exceeds the %zu-point grid\n",
                   result.name.c_str(), id, result.points.size());
    }
  }
  std::size_t executed = 0;
  for (const core::PointSummary& summary : result.points) {
    if (summary.executed) ++executed;
  }
  std::printf("[%s] partial run: %zu/%zu points executed — analysis skipped; combine the\n"
              "partial exports with `bench_suite merge`.\n",
              result.name.c_str(), executed, result.points.size());
  return std::nullopt;
}

Registry& Registry::Instance() {
  static Registry* registry = new Registry();  // leaked: outlives static dtors
  return *registry;
}

void Registry::Add(BenchInfo info) { benches_.push_back(std::move(info)); }

std::vector<BenchInfo> Registry::Benches() const { return Match(""); }

std::vector<BenchInfo> Registry::Match(const std::string& filter) const {
  std::vector<BenchInfo> out;
  for (const BenchInfo& bench : benches_) {
    if (filter.empty() || bench.name.find(filter) != std::string::npos) {
      out.push_back(bench);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const BenchInfo& a, const BenchInfo& b) { return a.name < b.name; });
  return out;
}

const BenchInfo* Registry::Find(const std::string& name) const {
  for (const BenchInfo& bench : benches_) {
    if (bench.name == name) return &bench;
  }
  return nullptr;
}

Registrar::Registrar(std::string name, std::string description,
                     std::function<int(const BenchContext&)> run) {
  Registry::Instance().Add(BenchInfo{std::move(name), std::move(description), std::move(run)});
}

int RunByName(const std::string& name, const BenchContext& context) {
  const BenchInfo* bench = Registry::Instance().Find(name);
  if (bench == nullptr) {
    std::fprintf(stderr, "unknown bench: %s\n", name.c_str());
    return 2;
  }
  return bench->run(context);
}

}  // namespace quicer::bench
