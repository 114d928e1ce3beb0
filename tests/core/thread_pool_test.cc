#include "core/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

namespace quicer::core {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.ParallelFor(kCount, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ZeroCountReturnsImmediately) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, ParallelismCapOfOneStillCompletes) {
  ThreadPool pool(4);
  std::vector<int> out(64, 0);
  pool.ParallelFor(out.size(), [&](std::size_t i) { out[i] = static_cast<int>(i); },
                   /*max_parallelism=*/1);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], static_cast<int>(i));
}

TEST(ThreadPool, CapAbovePoolSizeWorks) {
  ThreadPool pool(2);
  std::atomic<int> sum{0};
  pool.ParallelFor(100, [&](std::size_t i) { sum.fetch_add(static_cast<int>(i)); },
                   /*max_parallelism=*/64);
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  // A pool task that itself fans out must make progress even when every
  // worker is occupied: the calling lane participates in its own loop.
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  pool.ParallelFor(4, [&](std::size_t) {
    pool.ParallelFor(8, [&](std::size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 32);
}

TEST(ThreadPool, SubmitExecutesDetachedTasks) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 50; ++i) pool.Submit([&] { done.fetch_add(1); });
    // Destructor drains remaining tasks before joining.
  }
  EXPECT_EQ(done.load(), 50);
}

TEST(ThreadPool, GlobalPoolIsPersistent) {
  ThreadPool& a = ThreadPool::Global();
  ThreadPool& b = ThreadPool::Global();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.size(), 1u);
  std::atomic<int> sum{0};
  a.ParallelFor(10, [&](std::size_t) { sum.fetch_add(1); });
  EXPECT_EQ(sum.load(), 10);
}

}  // namespace
}  // namespace quicer::core
