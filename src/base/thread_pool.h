// A small reusable worker pool.
//
// Two ways to hand it work:
//
// - Submit() pushes a std::function<void()> closure; WaitIdle() blocks
//   the caller until every submitted task has finished.  A service that
//   answers requests on the pool uses this pair.
// - ParallelFor(n, fn) is a fork/join barrier in which the calling thread
//   takes part:
//
//     ThreadPool pool(3);   // three helpers; the caller is a fourth thread
//     pool.ParallelFor(items.size(), [&](size_t i) { items[i].Run(); });
//     // every items[i].Run() has returned; results visible to this thread
//
//   An atomic claim index hands out 0 .. n-1 to the caller and to at most
//   min(n - 1, size()) helper tasks.  Once every index is claimed the
//   caller waits only for the helpers that had already started; a helper
//   dequeued after that returns at once.  It never waits for unrelated
//   Submit() tasks, and n <= 1 runs inline without touching the pool.
//
// Both barriers establish a happens-before edge between the completed work
// and the waiting thread, so its outputs can be read without further
// synchronization.  The pool is intentionally minimal: no futures, no task
// priorities, no work stealing.  Destruction drains the queue and joins
// the workers.

#ifndef KGM_BASE_THREAD_POOL_H_
#define KGM_BASE_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace kgm {

class ThreadPool {
 public:
  // Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Finishes all pending tasks, then joins the workers.
  ~ThreadPool();

  size_t size() const { return workers_.size(); }

  // Enqueues a task.  Must not be called concurrently with destruction.
  void Submit(std::function<void()> task);

  // Blocks until the queue is empty and no task is running.
  void WaitIdle();

  // Fork/join: runs fn(0) .. fn(n - 1), some on the calling thread and the
  // rest on up to min(n - 1, size()) helpers, and returns once every call
  // has returned.  Waits for nothing else on the pool.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  // The default parallelism: hardware_concurrency, or 1 when unknown.
  static size_t DefaultThreads();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;   // signals workers: task or shutdown
  std::condition_variable idle_cv_;   // signals WaitIdle: all work done
  std::deque<std::function<void()>> queue_;
  size_t active_ = 0;                 // tasks currently executing
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace kgm

#endif  // KGM_BASE_THREAD_POOL_H_
