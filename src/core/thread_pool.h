// Persistent work-stealing thread pool.
//
// The benches sweep thousands of (scenario point × repetition) experiment
// jobs. The original harness spawned and joined a fresh set of std::threads
// for every sweep point, parallelising only within a point; this pool is
// created once per process, schedules all jobs of a sweep globally, and is
// shared by every bench in a suite run.
//
// Design: each worker owns a deque guarded by its own mutex. Submitted tasks
// are distributed round-robin (or pushed locally when submitted from a
// worker); an idle worker pops from the front of its own deque and steals
// from the back of a victim's when empty. Determinism of experiment sweeps
// does not depend on scheduling order: every job writes to a result slot
// keyed by its (point, repetition) index, so outputs are bit-identical to a
// serial run regardless of thread count.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace quicer::core {

class ThreadPool {
 public:
  using Task = std::function<void()>;

  /// Creates `threads` workers (0 = hardware concurrency, minimum 1).
  explicit ThreadPool(unsigned threads = 0);

  /// Drains remaining tasks, then joins every worker.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues one task. Thread-safe.
  void Submit(Task task);

  /// Runs fn(0) .. fn(count-1), blocking until every call has returned.
  /// At most `max_parallelism` indices run concurrently (0 = no cap beyond
  /// the pool size). The calling thread participates in the work, so
  /// ParallelFor makes progress even when every worker is busy — including
  /// when it is invoked from inside a pool task (nested parallelism).
  void ParallelFor(std::size_t count, const std::function<void(std::size_t)>& fn,
                   unsigned max_parallelism = 0);

  /// Number of worker threads.
  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// The lanes ParallelFor runs on under `max_parallelism`: the pool size,
  /// capped by a nonzero max_parallelism.
  unsigned Lanes(unsigned max_parallelism) const {
    return max_parallelism != 0 && max_parallelism < size() ? max_parallelism : size();
  }

  /// The process-wide shared pool, created on first use with hardware
  /// concurrency (override with the QUICER_THREADS environment variable).
  static ThreadPool& Global();

  /// Total tasks executed by workers since construction (telemetry; does not
  /// count indices the submitting thread ran itself inside ParallelFor).
  std::uint64_t tasks_executed() const;

 private:
  struct WorkerQueue {
    std::mutex mutex;
    std::deque<Task> tasks;
  };

  void WorkerLoop(unsigned index);
  bool TryPop(unsigned self, Task& task);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;

  std::mutex sleep_mutex_;
  std::condition_variable sleep_cv_;
  std::atomic<std::uint64_t> pending_{0};
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<unsigned> next_queue_{0};
  std::atomic<bool> stop_{false};
};

}  // namespace quicer::core
