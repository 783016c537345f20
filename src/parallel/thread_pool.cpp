#include "parallel/thread_pool.hpp"

#include <atomic>
#include <exception>
#include <memory>
#include <utility>

namespace sz14 {
namespace {

/// Which pool's worker loop (if any) the current thread belongs to.
/// Workers never migrate between pools and die with their pool, so a plain
/// thread-local pointer is enough to detect run_batch() reentrancy.
thread_local const ThreadPool* t_worker_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0)
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    queue_.push_back(std::move(task));
  }
  cv_task_.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock lock(mutex_);
  cv_done_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

bool ThreadPool::on_worker_thread() const noexcept {
  return t_worker_pool == this;
}

void ThreadPool::run_batch(std::size_t n,
                           const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (on_worker_thread()) {
    // Nested batch from one of our own workers: queuing and blocking here
    // deadlocks once every worker does it, so run inline (see header).
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Shared with the helpers, which may start after this call returned: a
  // late helper claims an index past n and touches nothing but this
  // state, never `fn` (whose frame may be gone by then).
  struct Batch {
    const std::function<void(std::size_t)>* fn;
    std::size_t n;
    std::atomic<std::size_t> next{0};
    std::mutex m;
    std::condition_variable cv;
    std::size_t done = 0;
    std::exception_ptr error;

    /// Claim and run indices until none is left.
    void work() {
      std::size_t ran = 0;
      for (;; ++ran) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) break;
        try {
          (*fn)(i);
        } catch (...) {
          const std::lock_guard lock(m);
          if (!error) error = std::current_exception();
        }
      }
      if (ran == 0) return;
      const std::lock_guard lock(m);
      done += ran;
      if (done == n) cv.notify_one();
    }
  };
  const auto batch = std::make_shared<Batch>();
  batch->fn = &fn;
  batch->n = n;
  // The caller is one of the at most thread_count() threads on the batch.
  const std::size_t helpers = std::min(n, workers_.size()) - 1;
  for (std::size_t h = 0; h < helpers; ++h) submit([batch] { batch->work(); });
  batch->work();
  std::unique_lock lock(batch->m);
  batch->cv.wait(lock, [&] { return batch->done == n; });
  // Take the exception out of the batch: a late helper may destroy the
  // batch while the caller's handler still reads the exception.
  const std::exception_ptr error = std::exchange(batch->error, nullptr);
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

void ThreadPool::worker_loop() {
  t_worker_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    task();
    {
      std::lock_guard lock(mutex_);
      --in_flight_;
    }
    cv_done_.notify_all();
  }
}

ThreadPool& shared_pool() {
  static ThreadPool pool;  // joined at process exit
  return pool;
}

void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& fn) {
  if (threads <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  threads = std::min(threads, n);
  std::vector<std::thread> ts;
  ts.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    const std::size_t lo = n * t / threads;
    const std::size_t hi = n * (t + 1) / threads;
    ts.emplace_back([lo, hi, &fn] {
      for (std::size_t i = lo; i < hi; ++i) fn(i);
    });
  }
  for (auto& t : ts) t.join();
}

}  // namespace sz14
