// TSan-targeted stress coverage for the concurrency hot spots the tsan CI
// job exists to watch: ParallelFor called from several external threads at
// once, pools destroyed while helper lanes may still be queued, nested loops
// from every worker, the serialized SweepObserver contract, and telemetry
// counting concurrent with the end-of-loop snapshot. The assertions are
// deliberately coarse — the point of these tests is the interleavings they
// force under -DQUICER_SANITIZE=thread, where any unsynchronized access
// fails the run.
#include "core/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

#include "core/sweep.h"
#include "obs/telemetry.h"

namespace quicer::core {
namespace {

constexpr unsigned kStressThreads = 8;

TEST(ThreadPoolStress, ConcurrentParallelForFromExternalThreads) {
  // Four external threads and the owning thread race their loops' helper
  // lanes through the one lane queue; every index of every loop must run
  // exactly once.
  constexpr int kCallers = 4;
  constexpr int kLoopsPerCaller = 20;
  constexpr std::size_t kCount = 200;
  ThreadPool pool(kStressThreads);
  std::vector<std::vector<std::atomic<int>>> hits(kCallers + 1);
  for (auto& caller : hits) caller = std::vector<std::atomic<int>>(kCount);
  auto run_loops = [&pool, &hits](int caller) {
    for (int loop = 0; loop < kLoopsPerCaller; ++loop) {
      pool.ParallelFor(kCount, [&hits, caller](std::size_t i) {
        hits[caller][i].fetch_add(1, std::memory_order_relaxed);
      });
    }
  };
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) callers.emplace_back(run_loops, c);
  run_loops(kCallers);
  for (std::thread& t : callers) t.join();
  for (const auto& caller : hits) {
    for (const std::atomic<int>& hit : caller) ASSERT_EQ(hit.load(), kLoopsPerCaller);
  }
}

TEST(ThreadPoolStress, DestroyedRightAfterParallelForReturns) {
  // A loop of cheap indices is often drained by its caller before any
  // worker wakes, so its helper lanes are still queued when ParallelFor
  // returns; destroying the pool at once must drop them without running a
  // dead loop's body or racing the workers' exit.
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> ran{0};
    {
      ThreadPool pool(kStressThreads);
      std::vector<std::thread> callers;
      for (int c = 0; c < 4; ++c) {
        callers.emplace_back([&pool, &ran] {
          for (int loop = 0; loop < 20; ++loop) {
            pool.ParallelFor(kStressThreads, [&ran](std::size_t) {
              ran.fetch_add(1, std::memory_order_relaxed);
            });
          }
        });
      }
      for (std::thread& t : callers) t.join();
    }
    EXPECT_EQ(ran.load(), static_cast<int>(4 * 20 * kStressThreads)) << "round " << round;
  }
}

TEST(ThreadPoolStress, NestedParallelForFromEveryWorker) {
  ThreadPool pool(kStressThreads);
  std::atomic<int> inner{0};
  pool.ParallelFor(kStressThreads * 4, [&](std::size_t) {
    pool.ParallelFor(32, [&](std::size_t) { inner.fetch_add(1, std::memory_order_relaxed); });
  });
  EXPECT_EQ(inner.load(), static_cast<int>(kStressThreads * 4 * 32));
}

TEST(ThreadPoolStress, TelemetryCountingAcrossWorkers) {
  // All workers count into their per-thread registries while the loop runs;
  // the end-of-loop Snapshot must observe every bump through ParallelFor's
  // completion edge (this is exactly the RunSweep telemetry bracket).
  obs::EnableProcess();
  obs::ResetAll();
  ThreadPool pool(kStressThreads);
  constexpr std::size_t kJobs = 4000;
  pool.ParallelFor(kJobs, [](std::size_t) {
    obs::EnsureThisThread();
    obs::Count(obs::kEventsRun);
    obs::CountMax(obs::kArenaBytesHighWater, 7);
  });
  const auto snapshot = obs::Snapshot();
  EXPECT_GE(snapshot[obs::kEventsRun], kJobs);
  EXPECT_GE(snapshot[obs::kArenaBytesHighWater], 7u);
}

TEST(ThreadPoolStress, ObserverSerializedUnderParallelExecution) {
  // The SweepObserver contract: called after every completed point, never
  // concurrently. The unguarded counter would race (and fail under TSan) if
  // the engine ever called the observer from two workers at once.
  SweepSpec spec;
  spec.name = "stress_observer";
  spec.repetitions = 3;
  spec.axes.rtts = {sim::Millis(1), sim::Millis(2), sim::Millis(3), sim::Millis(4),
                    sim::Millis(5), sim::Millis(6), sim::Millis(7), sim::Millis(8)};
  spec.runner = [](const SweepRunContext& run) {
    return std::vector<double>{static_cast<double>(run.repetition)};
  };
  std::size_t observed_points = 0;  // unguarded on purpose
  bool reentered = false;
  std::atomic<bool> in_observer{false};
  spec.observer = [&](const SweepProgress& progress) {
    if (in_observer.exchange(true)) reentered = true;
    observed_points = progress.points_completed;
    in_observer.store(false);
  };
  const SweepResult result = RunSweep(spec);
  EXPECT_FALSE(reentered);
  EXPECT_EQ(observed_points, result.points.size());
  EXPECT_EQ(result.points.size(), 8u);
}

}  // namespace
}  // namespace quicer::core
