// TSan-targeted stress coverage for the concurrency hot spots the tsan CI
// job exists to watch: ThreadPool work stealing under submission pressure,
// shutdown while tasks are in flight (including tasks that Submit more
// work), the serialized SweepObserver contract, and telemetry counting
// concurrent with the end-of-loop snapshot. The assertions are deliberately coarse — the
// point of these tests is the interleavings they force under
// -DQUICER_SANITIZE=thread, where any unsynchronized access fails the run.
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

TEST(ThreadPoolStress, WorkStealingUnderCrossThreadSubmission) {
  // Four external threads race Submit against eight workers stealing from
  // each other's deques; every task must run exactly once. The assertion
  // runs after ~ThreadPool, which drains every queued task before joining.
  constexpr int kSubmitters = 4;
  constexpr int kTasksPerSubmitter = 2000;
  std::atomic<int> executed{0};
  {
    ThreadPool pool(kStressThreads);
    std::vector<std::thread> submitters;
    submitters.reserve(kSubmitters);
    for (int s = 0; s < kSubmitters; ++s) {
      submitters.emplace_back([&pool, &executed] {
        for (int i = 0; i < kTasksPerSubmitter; ++i) {
          pool.Submit([&executed] { executed.fetch_add(1, std::memory_order_relaxed); });
        }
      });
    }
    // ParallelFor interleaves its lanes with the external submissions, so
    // stealing crosses both kinds of work while the deques churn.
    pool.ParallelFor(256, [](std::size_t) {});
    for (std::thread& t : submitters) t.join();
  }
  EXPECT_EQ(executed.load(), kSubmitters * kTasksPerSubmitter);
}

TEST(ThreadPoolStress, ShutdownWithTasksInFlight) {
  // Destroy pools while submitted tasks are still queued: the destructor
  // must drain every task, and tasks that Submit follow-up work while the
  // pool is stopping must not be lost or raced.
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> ran{0};
    {
      ThreadPool pool(kStressThreads);
      for (int i = 0; i < 64; ++i) {
        pool.Submit([&pool, &ran] {
          ran.fetch_add(1, std::memory_order_relaxed);
          pool.Submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
        });
      }
      // No join here: ~ThreadPool races the drain against the submissions.
    }
    EXPECT_EQ(ran.load(), 128) << "round " << round;
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
