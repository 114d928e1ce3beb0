#include "core/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>

namespace quicer::core {

/// One ParallelFor call: the indices left to claim and to finish.
struct ThreadPool::Loop {
  Loop(std::size_t size, const std::function<void(std::size_t)>& body)
      : count(size), fn(body), remaining(size) {}

  /// Claims and runs indices until none is left; a lane that starts late
  /// claims nothing and so never touches `fn`, which dies with the call.
  void Drain() {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < count;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      fn(i);
      if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(mutex);
        done.notify_all();
      }
    }
  }

  const std::size_t count;
  const std::function<void(std::size_t)>& fn;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> remaining;
  std::mutex mutex;
  std::condition_variable done;
};

ThreadPool::ThreadPool(unsigned threads) {
  unsigned count = threads != 0 ? threads : std::thread::hardware_concurrency();
  if (count == 0) count = 4;
  workers_.reserve(count);
  for (unsigned i = 0; i < count; ++i) workers_.emplace_back([this] { WorkerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    wake_.wait(lock, [this] { return stop_ || !lanes_.empty(); });
    if (stop_) return;
    const std::shared_ptr<Loop> loop = std::move(lanes_.front());
    lanes_.pop_front();
    lock.unlock();
    loop->Drain();
    lock.lock();
  }
}

void ThreadPool::ParallelFor(std::size_t count, const std::function<void(std::size_t)>& fn,
                             unsigned max_parallelism) {
  if (count == 0) return;
  const auto loop = std::make_shared<Loop>(count, fn);

  // One helper lane per extra lane; the calling thread is the final lane, so
  // the loop completes even if no worker is ever free to help.
  const std::size_t helpers = std::min<std::size_t>(Lanes(max_parallelism) - 1, count - 1);
  if (helpers > 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    lanes_.insert(lanes_.end(), helpers, loop);
  }
  for (std::size_t h = 0; h < helpers; ++h) wake_.notify_one();

  loop->Drain();

  std::unique_lock<std::mutex> lock(loop->mutex);
  loop->done.wait(lock, [&] { return loop->remaining.load(std::memory_order_acquire) == 0; });
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool = [] {
    const char* env = std::getenv("QUICER_THREADS");  // lint:allow(ND003): pool sizing; scheduling only, exports are thread-count invariant
    const long threads = env != nullptr ? std::strtol(env, nullptr, 10) : 0;
    // Leaked: workers must outlive static dtors.
    return new ThreadPool(threads > 0 ? static_cast<unsigned>(threads) : 0);
  }();
  return *pool;
}

}  // namespace quicer::core
