// Persistent thread pool with one parallel-execution API: ParallelFor.
//
// Created once per process and shared by every bench of a suite run, so a
// sweep's (point × repetition) jobs run as one loop instead of one
// spawn-and-join thread team per point.
//
// Design: a ParallelFor call is one loop over a shared atomic index. The
// caller queues up to Lanes() - 1 helper lanes on the pool's one FIFO lane
// queue, wakes workers through one condition variable, then drains the loop
// itself, so the loop finishes even if no worker ever picks up a helper:
// nested calls and calls from several threads complete. Sweep outputs do
// not depend on scheduling order: every job writes a slot keyed by its
// (point, repetition) index, so they are bit-identical at any thread count.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace quicer::core {

class ThreadPool {
 public:
  /// Creates `threads` workers (0 = hardware concurrency, minimum 1).
  explicit ThreadPool(unsigned threads = 0);

  /// Joins every worker. Helper lanes still queued belong to loops whose
  /// callers already drained them, so they are dropped unrun.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs fn(0) .. fn(count-1), blocking until every call has returned.
  /// At most `max_parallelism` indices run concurrently (0 = no cap beyond
  /// the pool size). The calling thread is one of the lanes, so nested calls
  /// and calls from several threads at once complete. Thread-safe.
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

 private:
  struct Loop;

  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<std::shared_ptr<Loop>> lanes_;  // queued helper lanes, FIFO
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace quicer::core
