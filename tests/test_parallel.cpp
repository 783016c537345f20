#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/exec_policy.hpp"
#include "common/timer.hpp"
#include "data/generators.hpp"
#include "parallel/io_model.hpp"
#include "parallel/parallel_codec.hpp"
#include "parallel/thread_pool.hpp"

namespace sz14 {
namespace {

/// Worker count now travels on the policy (opts.exec); this helper keeps
/// the call sites as terse as the retired (threads, chunks) overload.
ParallelResult compress_with(std::span<const float> data, const Dims& dims,
                             Options opts, std::size_t threads,
                             std::size_t chunks = 0) {
  opts.exec.threads = threads;
  return parallel_compress(data, dims, opts, chunks);
}

TEST(ThreadCpuTimerTest, SleepCostsNoCpuTime) {
  // The per-slab entropy columns sum this clock across workers; a worker
  // that is descheduled (here: asleep) must not accrue time.
  const ThreadCpuTimer cpu;
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_LT(cpu.seconds(), 0.010);
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { ++counter; });
  pool.wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.submit([&] { ++counter; });
  pool.wait();
  EXPECT_EQ(counter.load(), 1);
  pool.submit([&] { ++counter; });
  pool.wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPoolTest, DefaultsToHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPoolTest, RunBatchPropagatesFirstWorkerException) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  try {
    pool.run_batch(16, [&](std::size_t i) {
      ++ran;
      if (i == 5) throw std::runtime_error("task 5 failed");
    });
    FAIL() << "run_batch swallowed the worker exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 5 failed");
  }
  // Every task still ran (the batch drains before rethrowing) and the pool
  // remains usable afterwards.
  EXPECT_EQ(ran.load(), 16);
  std::atomic<int> after{0};
  pool.run_batch(4, [&](std::size_t) { ++after; });
  EXPECT_EQ(after.load(), 4);
}

TEST(ThreadPoolTest, RunBatchPropagatesNonStdExceptionType) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.run_batch(3, [](std::size_t i) {
        if (i == 0) throw std::invalid_argument("bad");
      }),
      std::invalid_argument);
}

TEST(ThreadPoolTest, SharedPoolIsUsable) {
  std::atomic<int> n{0};
  shared_pool().run_batch(8, [&](std::size_t) { ++n; });
  EXPECT_EQ(n.load(), 8);
}

TEST(ThreadPoolTest, OnWorkerThreadDetection) {
  // A batch runs on the calling thread and this pool's workers only: every
  // task sees exactly one of the two, and never another pool's worker.
  ThreadPool pool(2);
  ThreadPool other(1);
  EXPECT_FALSE(pool.on_worker_thread());  // caller is not a worker
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> inside{0}, on_caller{0}, cross{0};
  pool.run_batch(8, [&](std::size_t) {
    const bool worker = pool.on_worker_thread();
    const bool self = std::this_thread::get_id() == caller;
    if (worker && !self) ++inside;
    if (self && !worker) ++on_caller;
    if (other.on_worker_thread()) ++cross;  // never: wrong pool
  });
  EXPECT_EQ(inside.load() + on_caller.load(), 8);
  EXPECT_EQ(cross.load(), 0);
}

TEST(ThreadPoolTest, RunBatchRunsEachIndexOnce) {
  ThreadPool pool(3);
  for (const std::size_t n : {1u, 2u, 3u, 4u, 1000u}) {
    std::vector<std::atomic<int>> hits(n);
    pool.run_batch(n, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(hits[i].load(), 1) << "n=" << n << " i=" << i;
  }
}

TEST(ThreadPoolTest, RunBatchRunsOnAtMostThreadCountThreads) {
  // The caller plus at most P - 1 helpers: never more than P tasks at
  // once, and never more than P distinct threads.
  constexpr std::size_t kThreads = 3;
  ThreadPool pool(kThreads);
  std::atomic<std::size_t> running{0}, peak{0};
  std::mutex m;
  std::set<std::thread::id> threads;
  pool.run_batch(48, [&](std::size_t) {
    const std::size_t now = ++running;
    std::size_t seen = peak.load();
    while (now > seen && !peak.compare_exchange_weak(seen, now)) {
    }
    {
      const std::lock_guard lock(m);
      threads.insert(std::this_thread::get_id());
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    --running;
  });
  EXPECT_LE(peak.load(), kThreads);
  EXPECT_LE(threads.size(), kThreads);
}

TEST(ThreadPoolTest, OneTaskBatchRunsOnTheCaller) {
  ThreadPool pool(2);
  std::thread::id ran_on;
  pool.run_batch(1, [&](std::size_t) { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(ThreadPoolTest, RunBatchFnMayDieWhileLateHelpersAreQueued) {
  // Both workers are busy, so the batch's helper waits in the queue while
  // the caller runs every task and returns.  `fn` is destroyed right
  // away; the helper that starts afterwards must not touch it (the
  // sanitizer jobs see a use after free if it does).
  ThreadPool pool(2);
  std::mutex m;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> blocked{0};
  std::atomic<bool> gave_up{false};
  for (int w = 0; w < 2; ++w)
    pool.submit([&] {
      ++blocked;
      std::unique_lock lock(m);
      // A batch that waited for the workers would wait for this release;
      // the deadline turns that into a failure instead of a hang.
      const auto released = [&] { return release; };
      if (!cv.wait_for(lock, std::chrono::seconds(10), released))
        gave_up = true;
    });
  while (blocked.load() < 2) std::this_thread::yield();

  std::vector<int> hits(4, 0);
  auto fn = std::make_unique<std::function<void(std::size_t)>>(
      [&](std::size_t i) { ++hits[i]; });
  pool.run_batch(hits.size(), *fn);
  fn.reset();
  EXPECT_FALSE(gave_up.load()) << "the batch waited for busy workers";
  EXPECT_EQ(hits, std::vector<int>(4, 1));
  {
    const std::lock_guard lock(m);
    release = true;
  }
  cv.notify_all();
  pool.wait();  // the late helper has run by now
  EXPECT_EQ(hits, std::vector<int>(4, 1));
}

TEST(ThreadPoolTest, NestedRunBatchFromWorkerDoesNotDeadlock) {
  // A task that itself fans out on the SAME pool (an archive read served
  // on a pool the caller also borrowed) must not queue-and-block: with
  // every worker waiting on a nested batch there is nobody left to run the
  // queued tasks.  The reentrant batch runs inline instead.
  ThreadPool pool(2);  // fewer workers than outer tasks forces the hazard
  std::atomic<int> leaf{0};
  pool.run_batch(8, [&](std::size_t) {
    pool.run_batch(4, [&](std::size_t) { ++leaf; });
  });
  EXPECT_EQ(leaf.load(), 32);
}

TEST(ThreadPoolTest, NestedRunBatchStillPropagatesExceptions) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.run_batch(2,
                              [&](std::size_t) {
                                pool.run_batch(2, [](std::size_t i) {
                                  if (i == 1)
                                    throw std::runtime_error("inner");
                                });
                              }),
               std::runtime_error);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(1000, 8, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, SingleThreadFallback) {
  std::vector<int> hits(50, 0);
  parallel_for(50, 1, [&](std::size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelCodec, RoundTripMatchesBound) {
  const auto f = data::climate2d(64, 96);
  Options opts;
  opts.eb_abs = 0.01;
  const auto result = compress_with(f.values, f.dims, opts, 4);
  const auto out = parallel_decompress(result.stream, {.threads = 4});
  EXPECT_EQ(out.dims, f.dims);
  for (std::size_t i = 0; i < f.values.size(); ++i)
    ASSERT_LE(std::fabs(static_cast<double>(f.values[i]) -
                        static_cast<double>(out.data[i])),
              0.01);
}

TEST(ParallelCodec, StreamIsDeterministicAcrossThreadCounts) {
  // Chunking (not threading) defines the stream: same chunk count must give
  // byte-identical output regardless of worker count.
  const auto f = data::hurricane3d(8, 16, 16);
  Options opts;
  opts.eb_abs = 0.05;
  const auto a = compress_with(f.values, f.dims, opts, 1, 8);
  const auto b = compress_with(f.values, f.dims, opts, 4, 8);
  EXPECT_EQ(a.stream, b.stream);
}

TEST(ParallelCodec, StreamIsDeterministicAcrossRepeatedRuns) {
  // Same field + same chunk count => byte-identical stream run over run
  // (the phase-2 pipeline completes out of order; assembly must not).
  const auto f = data::climate2d(96, 64);
  Options opts;
  opts.eb_abs = 0.01;
  const auto a = compress_with(f.values, f.dims, opts, 3, 6);
  const auto b = compress_with(f.values, f.dims, opts, 3, 6);
  const auto c = compress_with(f.values, f.dims, opts, 2, 6);
  EXPECT_EQ(a.stream, b.stream);
  EXPECT_EQ(a.stream, c.stream);
}

TEST(ParallelCodec, RansBackendRoundTripsAndIsWorkerCountInvariant) {
  // The rANS backend shares one normalized frequency table across slabs
  // exactly like the Huffman path: same chunk count => byte-identical
  // stream for any worker count, decodable at any worker count, and a
  // different stream than the Huffman container for the same field.
  const auto f = data::hurricane3d(8, 16, 16);
  Options opts;
  opts.eb_abs = 1e-3;
  opts.exec.entropy = EntropyBackend::kRans;
  const auto a = compress_with(f.values, f.dims, opts, 1, 6);
  const auto b = compress_with(f.values, f.dims, opts, 4, 6);
  EXPECT_EQ(a.stream, b.stream);

  Options hopts = opts;
  hopts.exec.entropy = EntropyBackend::kHuffman;
  const auto h = compress_with(f.values, f.dims, hopts, 2, 6);
  EXPECT_NE(a.stream, h.stream);

  for (const std::size_t threads : {1u, 3u}) {
    const auto out = parallel_decompress(a.stream, {.threads = threads});
    ASSERT_EQ(out.data.size(), f.values.size());
    for (std::size_t i = 0; i < f.values.size(); ++i)
      ASSERT_LE(std::fabs(static_cast<double>(f.values[i]) -
                          static_cast<double>(out.data[i])),
                1e-3);
    // Identical codes either way: the reconstruction must match the
    // Huffman container's bit for bit.
    const auto hout = parallel_decompress(h.stream, {.threads = threads});
    EXPECT_EQ(out.data, hout.data);
  }
}

TEST(ParallelCodec, EntropyTimingsReported) {
  const auto f = data::climate2d(64, 96);
  Options opts;
  opts.eb_abs = 0.01;
  for (const auto backend :
       {EntropyBackend::kHuffman, EntropyBackend::kRans}) {
    opts.exec.entropy = backend;
    const auto result = compress_with(f.values, f.dims, opts, 2, 4);
    EXPECT_GT(result.entropy_encode_seconds, 0.0);
    const auto out = parallel_decompress(result.stream, {.threads = 2});
    EXPECT_GT(out.entropy_decode_seconds, 0.0);
  }
}

TEST(ParallelCodec, SharedTableBeatsPerChunkTables) {
  // The v2 container carries ONE Huffman table; many chunks must not
  // multiply the table overhead.  Compare 2 vs 16 chunks: stream growth
  // should stay well under one extra table per chunk (v1 paid ~1KB each).
  const auto f = data::climate2d(128, 128);
  Options opts;
  opts.eb_abs = 1e-3;
  const auto few = compress_with(f.values, f.dims, opts, 2, 2);
  const auto many = compress_with(f.values, f.dims, opts, 2, 16);
  EXPECT_LT(many.stream.size(),
            few.stream.size() + 14 * 256);  // << 14 extra tables
}

TEST(ParallelCodec, RelativeBoundIndependentOfChunking) {
  // v2 resolves eb against the WHOLE field once, so eb_rel streams are a
  // function of the chunk count only through slab borders — and the bound
  // used is identical for any chunking.
  const auto f = data::climate2d(64, 64);
  Options opts;
  opts.eb_rel = 1e-3;
  const auto a = compress_with(f.values, f.dims, opts, 2, 4);
  const auto out = parallel_decompress(a.stream, {.threads = 2});
  double lo = f.values[0], hi = f.values[0];
  for (const float v : f.values) {
    lo = std::min<double>(lo, v);
    hi = std::max<double>(hi, v);
  }
  const double eb = 1e-3 * (hi - lo);
  for (std::size_t i = 0; i < f.values.size(); ++i)
    ASSERT_LE(std::fabs(static_cast<double>(f.values[i]) -
                        static_cast<double>(out.data[i])),
              eb * (1 + 1e-12));
}

TEST(ParallelCodec, ChunkCountCappedByRows) {
  const auto f = data::climate2d(4, 64);  // only 4 rows
  Options opts;
  opts.eb_abs = 0.01;
  const auto result = compress_with(f.values, f.dims, opts, 16, 16);
  EXPECT_LE(result.chunks, 4u);
  const auto out = parallel_decompress(result.stream, {.threads = 2});
  EXPECT_EQ(out.data.size(), f.values.size());
}

TEST(ParallelCodec, SingleChunkMatchesSequentialCodec) {
  // One slab is the one-chunk case of the chunk codec that also writes the
  // sequential stream, so the two decode bit-identically for every rank,
  // entropy backend, layer count and decorrelation mode.
  const data::Field fields[] = {
      data::smooth1d(2000),
      data::climate2d(32, 32),
      data::hurricane3d(8, 16, 16),
      {data::climate2d(48, 40).values, Dims{4, 6, 8, 10}, "climate4d"},
  };
  for (const data::Field& f : fields)
    for (const auto entropy :
         {EntropyBackend::kHuffman, EntropyBackend::kRans})
      for (const unsigned layers : {1u, 2u})
        for (const bool decorrelate : {false, true}) {
          Options opts;
          opts.eb_abs = 0.01;
          opts.layers = layers;
          opts.decorrelate = decorrelate;
          opts.exec.entropy = entropy;
          const auto par = compress_with(f.values, f.dims, opts, 1, 1);
          const auto seq_out = decompress(compress(f.values, f.dims, opts));
          const auto par_out =
              parallel_decompress(par.stream, {.threads = 1});
          EXPECT_EQ(seq_out.data, par_out.data)
              << f.dims.to_string()
              << " rans=" << (entropy == EntropyBackend::kRans)
              << " layers=" << layers << " decorrelate=" << decorrelate;
        }
}

TEST(ParallelCodec, PredictableCountAggregates) {
  const auto f = data::climate2d(64, 64);
  Options opts;
  opts.eb_abs = 0.05;
  const auto result = compress_with(f.values, f.dims, opts, 4, 4);
  EXPECT_GT(result.predictable, f.values.size() / 2);
  EXPECT_LE(result.predictable, f.values.size());
}

TEST(ParallelCodec, MalformedStreamThrows) {
  const std::vector<std::uint8_t> junk = {1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_THROW((void)parallel_decompress(junk, {.threads = 2}),
               std::runtime_error);
}

TEST(IoModelTest, BandwidthSaturates) {
  IoModel model;
  const double bw1 = model.aggregate_bw(1);
  const double bw4 = model.aggregate_bw(4);
  const double bw100 = model.aggregate_bw(100);
  EXPECT_LT(bw1, bw4);
  EXPECT_DOUBLE_EQ(bw100, model.params().peak_bw);
}

TEST(IoModelTest, TransferTimeMonotoneInBytes) {
  IoModel model;
  EXPECT_LT(model.transfer_seconds(1000, 4),
            model.transfer_seconds(1000000000, 4));
}

TEST(IoModelTest, MoreProcessesNeverSlower) {
  IoModel model;
  const std::size_t bytes = std::size_t{10} << 30;
  double prev = std::numeric_limits<double>::infinity();
  for (std::size_t p : {1u, 2u, 4u, 8u, 16u, 64u, 1024u}) {
    const double t = model.transfer_seconds(bytes, p);
    EXPECT_LE(t, prev * (1 + 1e-12));
    prev = t;
  }
}

TEST(IoModelTest, CompressionWinsAtScale) {
  // Fig. 10's conclusion, as a model property: with CF ~6, writing
  // compressed data + compression time undercuts writing raw data once
  // many processes share the saturated link.
  IoModel model;
  const std::size_t raw = 100ull << 30;      // 100 GiB
  const std::size_t compressed = raw / 6;    // CF ~ 6
  const std::size_t procs = 1024;
  const double comp_speed_per_proc = 80e6;   // ~80 MB/s per process
  const double t_raw = model.transfer_seconds(raw, procs);
  const double t_comp = static_cast<double>(raw) /
                            (comp_speed_per_proc * static_cast<double>(procs)) +
                        model.transfer_seconds(compressed, procs);
  EXPECT_LT(t_comp, t_raw);
}

}  // namespace
}  // namespace sz14
