// Minimal fixed-size thread pool for the parallel codec and the
// scalability study (Tables VII/VIII).  Tasks are void() closures; wait()
// blocks until the queue drains.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sz14 {

class ThreadPool {
 public:
  /// `threads == 0` selects hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void submit(std::function<void()> task);

  /// Block until every submitted task has finished.
  void wait();

  /// Batch API: run `fn(i)` once for each i in [0, n) and block until all
  /// n calls have finished.  The calling thread works too: it and at most
  /// thread_count() - 1 helper tasks queued on the pool claim indices from
  /// one shared counter, so a batch runs on at most thread_count() threads
  /// and a one-task batch never leaves the caller.  The caller waits only
  /// for the calls already claimed; a helper that starts late finds no
  /// index left and never touches `fn`, so `fn` may die as soon as this
  /// returns.  Every call runs even when one throws; the first exception
  /// is rethrown on the calling thread after the batch.  Safe on a pool
  /// shared with unrelated submit() traffic: the caller keeps claiming
  /// while helpers wait in the queue.
  ///
  /// Reentrancy: when called FROM one of this pool's own workers (a task
  /// that itself fans out — e.g. an archive read served on the pool a
  /// caller also borrowed for its own batches), the batch runs inline on
  /// the calling worker and queues no helper.  Queue-and-wait from a
  /// worker could leave every worker blocked on a nested batch; inline
  /// execution keeps nested fan-out correct, merely unparallelized.  The
  /// first exception then propagates immediately (no drain barrier to
  /// honor).
  void run_batch(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// True when the calling thread is one of this pool's workers.
  [[nodiscard]] bool on_worker_thread() const noexcept;

  [[nodiscard]] std::size_t thread_count() const noexcept {
    return workers_.size();
  }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_task_;
  std::condition_variable cv_done_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
};

/// Run `fn(i)` for i in [0, n) over `threads` workers, static block split.
/// Simpler than the pool for embarrassingly parallel loops and has no
/// queue overhead; used by the strong-scaling benchmark.
void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& fn);

/// Process-wide pool (hardware_concurrency workers), created on first use.
/// Callers that want "use all cores" without managing a pool — e.g. the
/// CLI's `-t 0` compress/decompress paths — route through it so repeated
/// calls don't re-spawn workers; code that needs a specific worker count
/// constructs its own ThreadPool (the parallel codec accepts either).
ThreadPool& shared_pool();

}  // namespace sz14
