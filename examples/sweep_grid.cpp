// Sweep-engine walkthrough + scheduling comparison.
//
// Declares a (client × behavior × RTT) grid once, then runs it two ways:
//
//  1. the pre-refactor scheduling: one fresh spawn-and-join thread team per
//     grid point, parallel only within the point's repetitions;
//  2. the sweep engine: every (point × repetition) job scheduled globally on
//     the persistent pool as one ParallelFor, streamed into per-point
//     accumulators.
//
// Both produce bit-identical per-point medians (same seed schedule); the
// engine saves the per-point thread spawn/join overhead and keeps the pool
// busy across point boundaries, which is what the wall-clock delta shows.
//
//   example_sweep_grid [DATA_DIR]   # DATA_DIR: also write the sweep's CSV/JSON
#include <chrono>
#include <cstdio>
#include <thread>

#include "core/sweep.h"
#include "core/thread_pool.h"

namespace {

using namespace quicer;

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// The pre-refactor scheduling: one spawn + join thread team per call.
std::vector<double> SpawnJoinPerPoint(core::ExperimentConfig config, int repetitions) {
  std::vector<double> values(static_cast<std::size_t>(repetitions));
  const std::uint64_t base_seed = config.seed;
  std::atomic<int> next{0};
  auto worker = [&] {
    for (int i = next.fetch_add(1); i < repetitions; i = next.fetch_add(1)) {
      core::ExperimentConfig run = config;
      run.seed = base_seed + static_cast<std::uint64_t>(i) * 7919;
      values[static_cast<std::size_t>(i)] = core::RunExperiment(run).TtfbMs();
    }
  };
  unsigned threads = core::ThreadPool::Global().size();
  if (threads > static_cast<unsigned>(repetitions)) threads = repetitions;
  std::vector<std::thread> team;
  team.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) team.emplace_back(worker);
  for (std::thread& thread : team) thread.join();
  return values;
}

}  // namespace

int main(int argc, char** argv) {
  core::SweepSpec spec;
  spec.name = "sweep_grid_example";
  spec.base.response_body_bytes = 4096;
  spec.axes.clients = {clients::ClientImpl::kQuicGo, clients::ClientImpl::kNgtcp2,
                       clients::ClientImpl::kPicoquic, clients::ClientImpl::kNeqo};
  spec.axes.behaviors = {quic::ServerBehavior::kWaitForCertificate,
                         quic::ServerBehavior::kInstantAck};
  spec.axes.rtts = {sim::Millis(1), sim::Millis(5), sim::Millis(9), sim::Millis(20),
                    sim::Millis(50), sim::Millis(100)};
  spec.repetitions = 15;

  const auto points = core::Enumerate(spec);
  std::printf("grid: %zu points x %d repetitions = %zu runs, pool of %u threads\n\n",
              points.size(), spec.repetitions, points.size() * spec.repetitions,
              core::ThreadPool::Global().size());

  // 1. Per-point spawn/join (the pre-refactor harness).
  const auto legacy_start = std::chrono::steady_clock::now();
  std::vector<double> legacy_medians;
  for (const core::SweepPoint& point : points) {
    std::vector<double> values = SpawnJoinPerPoint(point.config, spec.repetitions);
    std::vector<double> valid;
    for (double v : values) {
      if (v >= 0) valid.push_back(v);
    }
    legacy_medians.push_back(stats::Median(valid));
  }
  const double legacy_seconds = Seconds(legacy_start);

  // 2. The sweep engine: global scheduling, streaming aggregation.
  const auto sweep_start = std::chrono::steady_clock::now();
  const core::SweepResult result = core::RunSweep(spec);
  const double sweep_seconds = Seconds(sweep_start);

  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    if (result.points[i].values().Median() != legacy_medians[i]) ++mismatches;
  }

  std::printf("per-point spawn/join: %6.3f s  (%zu thread teams spawned+joined)\n",
              legacy_seconds, points.size());
  std::printf("sweep engine:         %6.3f s  (persistent pool, global schedule)\n",
              sweep_seconds);
  std::printf("speedup: %.2fx, median mismatches: %zu (must be 0)\n",
              legacy_seconds / sweep_seconds, mismatches);
  if (argc > 1) core::WriteSweepData(result, argv[1]);
  return mismatches == 0 ? 0 : 1;
}
