// Timers for the speed and scalability experiments: wall clock (Timer)
// and the calling thread's CPU clock (ThreadCpuTimer).
#pragma once

#include <chrono>
#include <cstddef>
#include <ctime>

namespace sz14 {

class Timer {
 public:
  Timer() : start_(clock::now()) {}

  void reset() { start_ = clock::now(); }

  /// Elapsed seconds since construction or last reset().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// CPU time consumed by the calling thread (CLOCK_THREAD_CPUTIME_ID), for
/// per-task spans summed across pool workers: unlike Timer it does not
/// advance while the thread is descheduled, so workers time-sliced on
/// fewer cores do not count each other's time.  Start and read it on the
/// same thread.
class ThreadCpuTimer {
 public:
  ThreadCpuTimer() : start_(now()) {}

  /// CPU seconds this thread has used since construction.
  [[nodiscard]] double seconds() const { return now() - start_; }

 private:
  static double now() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  }

  double start_;
};

/// Throughput in MB/s for `bytes` processed in `seconds` (MB = 1e6 bytes,
/// matching the paper's Table VI units).
inline double throughput_mbs(std::size_t bytes, double seconds) {
  if (seconds <= 0) return 0.0;
  return static_cast<double>(bytes) / 1e6 / seconds;
}

}  // namespace sz14
