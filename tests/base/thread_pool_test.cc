#include "base/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <numeric>
#include <thread>
#include <vector>

namespace kgm {
namespace {

TEST(ThreadPoolTest, WaitIdleIsAForkJoinBarrier) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, WaitIdleCanBeReused) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.WaitIdle();
    EXPECT_EQ(count.load(), (round + 1) * 10);
  }
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<int> hits(257, 0);
  pool.ParallelFor(hits.size(), [&hits](size_t i) { hits[i] += 1; });
  // ParallelFor's barrier publishes the writes to this thread.
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 257);
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i], 1) << i;
}

TEST(ThreadPoolTest, ParallelForSingleIndexRunsInline) {
  ThreadPool pool(2);
  size_t seen = 0;
  pool.ParallelFor(1, [&seen](size_t i) { seen = i + 1; });
  EXPECT_EQ(seen, 1u);
}

TEST(ThreadPoolTest, ParallelForCallerRunsIndices) {
  // Every helper blocks inside its first index until the calling thread
  // has run one of its own, so the call only completes if the caller
  // claims indices itself.
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> caller_ran{false};
  std::vector<std::thread::id> ran_on(8);
  pool.ParallelFor(ran_on.size(), [&](size_t i) {
    ran_on[i] = std::this_thread::get_id();
    if (ran_on[i] == caller) {
      caller_ran.store(true);
    } else {
      while (!caller_ran.load()) std::this_thread::yield();
    }
  });
  EXPECT_TRUE(caller_ran.load());
  EXPECT_NE(std::count(ran_on.begin(), ran_on.end(), caller), 0);
}

TEST(ThreadPoolTest, ParallelForIgnoresUnrelatedTasks) {
  // The pool's only worker is held by an unrelated task until after the
  // call returns: ParallelFor must neither wait for that task nor need
  // the worker, and its queued helper must be harmless once it runs.
  ThreadPool pool(1);
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<bool> unrelated_done{false};
  pool.Submit([released, &unrelated_done] {
    released.wait();
    unrelated_done.store(true);
  });
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(16);
  pool.ParallelFor(ran_on.size(), [&ran_on](size_t i) {
    ran_on[i] = std::this_thread::get_id();
  });
  EXPECT_FALSE(unrelated_done.load());
  for (size_t i = 0; i < ran_on.size(); ++i) EXPECT_EQ(ran_on[i], caller) << i;
  release.set_value();
  pool.WaitIdle();
  EXPECT_TRUE(unrelated_done.load());
}

TEST(ThreadPoolTest, ParallelForZeroIsANoOp) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(0, [&called](size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ManySmallParallelForsCoverEveryIndexOnce) {
  ThreadPool pool(3);
  std::vector<int> hits(8);
  for (int call = 0; call < 10000; ++call) {
    size_t n = 1 + call % hits.size();
    std::fill(hits.begin(), hits.end(), 0);
    pool.ParallelFor(n, [&hits](size_t i) { hits[i] += 1; });
    for (size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i], i < n ? 1 : 0) << "call " << call << " index " << i;
    }
  }
}

TEST(ThreadPoolTest, DefaultThreadsIsPositive) {
  EXPECT_GE(ThreadPool::DefaultThreads(), 1u);
}

}  // namespace
}  // namespace kgm
