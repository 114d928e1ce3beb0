#include "registry.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace quicer::bench {

namespace {

/// Prints "points done / total, runs/sec" to stderr (stdout carries the
/// figure tables).
void PrintProgress(const core::SweepProgress& p) {
  std::fprintf(stderr, "[%.*s] %zu/%zu points, %zu runs, %.0f runs/s\n",
               static_cast<int>(p.sweep.size()), p.sweep.data(), p.points_completed,
               p.points_total, p.runs_completed, p.runs_per_second);
}

}  // namespace

std::optional<core::SweepResult> Run(core::SweepSpec spec, const BenchContext& ctx) {
  if (ctx.enumerate) {
    ctx.enumerate(spec);
    return std::nullopt;
  }

  if (ctx.progress) spec.observer = PrintProgress;
  spec.shard = ctx.shard;
  spec.qlog_dir = ctx.qlog_dir;
  core::SweepResult result = core::RunSweep(spec);

  if (!ctx.data_dir.empty() && !core::WriteSweepData(result, ctx.data_dir)) {
    std::fprintf(stderr, "[%s] cannot write exports into '%s'\n", result.name.c_str(),
                 ctx.data_dir.c_str());
  }
  if (!result.sharded()) return result;
  // A sharded run exports its partial file but skips the bench's printed
  // analysis: its tables would read incomplete series.
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

}  // namespace quicer::bench
