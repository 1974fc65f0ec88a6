#include "base/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

namespace kgm {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n <= 1) {
    if (n == 1) fn(0);
    return;
  }
  // Shared with the helper tasks, which may be dequeued after this call
  // has returned; such a late helper sees `closed` and touches nothing else.
  struct Call {
    const std::function<void(size_t)>* fn = nullptr;  // valid while open
    size_t n = 0;
    std::atomic<size_t> next{0};
    std::mutex mu;
    std::condition_variable done_cv;
    size_t running = 0;  // helpers inside ClaimAll
    bool closed = false;

    void ClaimAll() {
      for (;;) {
        size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        (*fn)(i);
      }
    }
  };
  auto call = std::make_shared<Call>();
  call->fn = &fn;
  call->n = n;
  size_t helpers = std::min(n - 1, size());
  for (size_t h = 0; h < helpers; ++h) {
    Submit([call] {
      {
        std::lock_guard<std::mutex> lock(call->mu);
        if (call->closed) return;
        ++call->running;
      }
      call->ClaimAll();
      std::lock_guard<std::mutex> lock(call->mu);
      if (--call->running == 0) call->done_cv.notify_all();
    });
  }
  call->ClaimAll();
  // Every index is claimed: no helper that starts from here on can find
  // work, so close the call and wait only for those already inside it.
  std::unique_lock<std::mutex> lock(call->mu);
  call->closed = true;
  call->done_cv.wait(lock, [&call] { return call->running == 0; });
}

size_t ThreadPool::DefaultThreads() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (shutdown_) return;
      continue;
    }
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    ++active_;
    lock.unlock();
    task();
    lock.lock();
    --active_;
    if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
  }
}

}  // namespace kgm
