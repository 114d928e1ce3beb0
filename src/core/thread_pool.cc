#include "core/thread_pool.h"

#include <atomic>
#include <cstdlib>
#include <memory>
#include <utility>

namespace quicer::core {
namespace {

unsigned ResolveThreads(unsigned requested) {
  unsigned threads = requested != 0 ? requested : std::thread::hardware_concurrency();
  if (threads == 0) threads = 4;
  return threads;
}

}  // namespace

ThreadPool::ThreadPool(unsigned threads) {
  const unsigned count = ResolveThreads(threads);
  queues_.reserve(count);
  for (unsigned i = 0; i < count; ++i) queues_.push_back(std::make_unique<WorkerQueue>());
  workers_.reserve(count);
  for (unsigned i = 0; i < count; ++i) workers_.emplace_back([this, i] { WorkerLoop(i); });
}

ThreadPool::~ThreadPool() {
  {
    // Holding sleep_mutex_ means no worker is between its predicate check
    // and the wait, so the notification cannot be lost.
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    stop_.store(true, std::memory_order_release);
  }
  sleep_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(Task task) {
  const unsigned index = next_queue_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
  {
    // pending_ must rise before the task becomes poppable: a worker that
    // pops and decrements first would wrap the counter. Updating under
    // sleep_mutex_ also closes the lost-wakeup window against the
    // predicate check in WorkerLoop.
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    pending_.fetch_add(1, std::memory_order_release);
  }
  {
    std::lock_guard<std::mutex> lock(queues_[index]->mutex);
    queues_[index]->tasks.push_back(std::move(task));
  }
  sleep_cv_.notify_one();
}

bool ThreadPool::TryPop(unsigned self, Task& task) {
  // Own queue first (front: submission order)...
  {
    WorkerQueue& own = *queues_[self];
    std::lock_guard<std::mutex> lock(own.mutex);
    if (!own.tasks.empty()) {
      task = std::move(own.tasks.front());
      own.tasks.pop_front();
      return true;
    }
  }
  // ...then steal from the back of a victim's.
  const unsigned n = static_cast<unsigned>(queues_.size());
  for (unsigned offset = 1; offset < n; ++offset) {
    WorkerQueue& victim = *queues_[(self + offset) % n];
    std::lock_guard<std::mutex> lock(victim.mutex);
    if (!victim.tasks.empty()) {
      task = std::move(victim.tasks.back());
      victim.tasks.pop_back();
      return true;
    }
  }
  return false;
}

void ThreadPool::WorkerLoop(unsigned index) {
  while (true) {
    Task task;
    if (TryPop(index, task)) {
      pending_.fetch_sub(1, std::memory_order_acq_rel);
      task();
      continue;
    }
    std::unique_lock<std::mutex> lock(sleep_mutex_);
    sleep_cv_.wait(lock, [this] {
      return stop_.load(std::memory_order_acquire) ||
             pending_.load(std::memory_order_acquire) != 0;
    });
    if (stop_.load(std::memory_order_acquire) &&
        pending_.load(std::memory_order_acquire) == 0) {
      return;
    }
  }
}

void ThreadPool::ParallelFor(std::size_t count, const std::function<void(std::size_t)>& fn,
                             unsigned max_parallelism) {
  if (count == 0) return;

  struct LoopState {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> remaining;
    std::mutex mutex;
    std::condition_variable done;
  };
  auto state = std::make_shared<LoopState>();
  state->remaining.store(count, std::memory_order_relaxed);

  auto drain = [state, &fn, count] {
    for (std::size_t i = state->next.fetch_add(1, std::memory_order_relaxed); i < count;
         i = state->next.fetch_add(1, std::memory_order_relaxed)) {
      fn(i);
      if (state->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(state->mutex);
        state->done.notify_all();
      }
    }
  };

  // One runner task per extra lane; the calling thread is the final lane, so
  // the loop completes even if no worker is ever free to help.
  const unsigned lanes = Lanes(max_parallelism);
  const std::size_t helpers =
      lanes > 1 ? std::min<std::size_t>(lanes - 1, count > 1 ? count - 1 : 0) : 0;
  for (std::size_t h = 0; h < helpers; ++h) Submit(drain);

  drain();

  std::unique_lock<std::mutex> lock(state->mutex);
  state->done.wait(lock, [&] { return state->remaining.load(std::memory_order_acquire) == 0; });
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool = [] {
    unsigned threads = 0;
    if (const char* env = std::getenv("QUICER_THREADS")) {  // lint:allow(ND003): pool sizing; scheduling only, exports are thread-count invariant
      const long parsed = std::strtol(env, nullptr, 10);
      if (parsed > 0) threads = static_cast<unsigned>(parsed);
    }
    return new ThreadPool(threads);  // leaked: workers must outlive static dtors
  }();
  return *pool;
}

}  // namespace quicer::core
