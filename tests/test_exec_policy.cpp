// Per-call ExecPolicy contract: the execution strategy (hot-path mode,
// pool, scratch arena) is plain per-call state, so
//  - N threads compressing simultaneously with DIFFERENT policies produce
//    exactly the streams sequential runs with those policies produce (the
//    north-star mixed-mode scenario; run under TSan by the CI tsan job),
//  - repeated calls through one CodecScratch are byte-identical to
//    fresh-buffer calls across dtypes, ranks, and interleaved sizes,
//  - the parallel codec takes its pool from the policy,
//  - an ArchiveWriter's pinned mode no longer perturbs unrelated
//    concurrent compress() calls (the retired global-pin hazard).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>
#include <unistd.h>

#include "archive/archive.hpp"
#include "common/exec_policy.hpp"
#include "core/compressor.hpp"
#include "data/generators.hpp"
#include "parallel/parallel_codec.hpp"
#include "parallel/thread_pool.hpp"

namespace sz14 {
namespace {

constexpr HotPathMode kAllModes[] = {HotPathMode::kFast, HotPathMode::kTurbo};
constexpr int kModes = 2;

const char* mode_name(HotPathMode m) {
  return m == HotPathMode::kFast ? "fast" : "turbo";
}

template <typename T>
std::vector<T> to_dtype(const std::vector<float>& v) {
  return std::vector<T>(v.begin(), v.end());
}

TEST(ExecPolicyConcurrency, MixedModeThreadsMatchSequentialStreams) {
  const auto f = data::climate2d(48, 64);
  Options base;
  base.eb_abs = 1e-3;

  // Sequential golden stream per mode.
  std::vector<std::uint8_t> golden[kModes];
  for (int m = 0; m < kModes; ++m) {
    Options o = base;
    o.exec.mode = kAllModes[m];
    golden[m] = compress(f.values, f.dims, o);
  }

  // 4 threads per mode, all compressing at once with per-call policies —
  // and ONE arena shared by every plain std::thread (local() keys buffer
  // sets by thread identity, so this must never race or cross-pollute).
  constexpr int kPerMode = 4;
  CodecScratch shared_scratch;
  std::vector<std::uint8_t> streams[kModes * kPerMode];
  {
    std::vector<std::thread> threads;
    for (int m = 0; m < kModes; ++m) {
      for (int t = 0; t < kPerMode; ++t) {
        threads.emplace_back([&, m, t] {
          Options o = base;
          o.exec.mode = kAllModes[m];
          o.exec.scratch = &shared_scratch;
          streams[m * kPerMode + t] = compress(f.values, f.dims, o);
        });
      }
    }
    for (auto& th : threads) th.join();
  }
  for (int m = 0; m < kModes; ++m)
    for (int t = 0; t < kPerMode; ++t)
      EXPECT_EQ(streams[m * kPerMode + t], golden[m])
          << mode_name(kAllModes[m]) << " thread " << t;
}

TEST(ExecPolicyConcurrency, ConcurrentDecodeBitIdentical) {
  // Concurrent decodes, half of them through one shared arena, all match
  // the sequential decode.
  const auto f = data::hurricane3d(10, 16, 16);
  Options opts;
  opts.eb_abs = 1e-3;
  const auto stream = compress(f.values, f.dims, opts);
  const auto golden = decompress(stream).data;

  CodecScratch shared_scratch;
  std::vector<float> outs[6];
  {
    std::vector<std::thread> threads;
    for (int i = 0; i < 6; ++i) {
      threads.emplace_back([&, i] {
        ExecPolicy exec;
        if (i % 2 == 0) exec.scratch = &shared_scratch;
        outs[i] = decompress(stream, exec).data;
      });
    }
    for (auto& th : threads) th.join();
  }
  for (int i = 0; i < 6; ++i) EXPECT_EQ(outs[i], golden) << i;
}

template <typename T>
void scratch_reuse_roundtrips(CodecScratch& scratch) {
  // Interleave shapes so every reuse pattern (grow, shrink, regrow) hits
  // each buffer; every stream and reconstruction must match the
  // fresh-buffer run bit for bit.
  const Dims shapes[] = {Dims{257}, Dims{23, 17}, Dims{9, 11, 13},
                         Dims{4096}, Dims{23, 17}};
  for (const HotPathMode mode : kAllModes) {
    for (const Dims& dims : shapes) {
      const auto f32 = data::smooth1d(dims.count());
      const auto values = to_dtype<T>(f32.values);

      Options fresh;
      fresh.eb_abs = 1e-3;
      fresh.exec.mode = mode;
      Options reused = fresh;
      reused.exec.scratch = &scratch;

      const auto a = compress(std::span<const T>(values), dims, fresh);
      const auto b = compress(std::span<const T>(values), dims, reused);
      ASSERT_EQ(a, b) << mode_name(mode) << " dims=" << dims.to_string();

      std::vector<T> out_fresh(dims.count()), out_reused(dims.count());
      (void)decompress_into(a, std::span<T>(out_fresh), fresh.exec);
      (void)decompress_into(a, std::span<T>(out_reused), reused.exec);
      ASSERT_EQ(out_fresh, out_reused)
          << mode_name(mode) << " dims=" << dims.to_string();
    }
  }
}

TEST(CodecScratchTest, ReuseIsByteIdenticalAcrossDtypesAndRanks) {
  // ONE arena across every dtype/rank/mode combination — the harshest
  // reuse schedule a batch workload can produce.
  CodecScratch scratch;
  scratch_reuse_roundtrips<float>(scratch);
  scratch_reuse_roundtrips<double>(scratch);
}

TEST(CodecScratchTest, SharedArenaAcrossPoolWorkers) {
  // Archive-style batch: many block compressions on a pool, all handed the
  // SAME arena; each worker must get private buffers (slot per worker).
  const auto f = data::climate2d(40, 50);
  Options base;
  base.eb_abs = 1e-3;
  const auto golden = compress(f.values, f.dims, base);

  ThreadPool pool(4);
  CodecScratch scratch;
  constexpr std::size_t kTasks = 32;
  std::vector<std::vector<std::uint8_t>> streams(kTasks);
  pool.run_batch(kTasks, [&](std::size_t i) {
    Options o = base;
    o.exec.scratch = &scratch;
    streams[i] = compress(f.values, f.dims, o);
  });
  for (std::size_t i = 0; i < kTasks; ++i) EXPECT_EQ(streams[i], golden) << i;
}

TEST(ExecPolicyTest, ParallelPoolComesFromPolicy) {
  const auto f = data::climate2d(64, 48);
  Options opts;
  opts.eb_abs = 1e-3;
  ThreadPool pool(3);
  const auto explicit_pool = parallel_compress(f.values, f.dims, opts, pool,
                                               /*chunks=*/6);
  Options with_pool = opts;
  with_pool.exec.pool = &pool;
  const auto via_policy = parallel_compress(f.values, f.dims, with_pool, 6);
  EXPECT_EQ(explicit_pool.stream, via_policy.stream);

  Options with_threads = opts;
  with_threads.exec.threads = 2;
  const auto via_private =
      parallel_compress(f.values, f.dims, with_threads, 6);
  EXPECT_EQ(explicit_pool.stream, via_private.stream);

  const auto out = parallel_decompress(via_policy.stream, with_pool.exec);
  for (std::size_t i = 0; i < f.values.size(); ++i)
    ASSERT_LE(std::fabs(static_cast<double>(f.values[i]) -
                        static_cast<double>(out.data[i])),
              1e-3);
}

TEST(ExecPolicyConcurrency, TurboArchiveWriterDoesNotPerturbOtherCalls) {
  // The retired hazard: a turbo-pinned ArchiveWriter used to flip a
  // process-global selector around every append, silently turning
  // unrelated concurrent compress() calls turbo.  With per-writer policy,
  // a fast compression racing a turbo ingest must stay bit-identical to
  // the sequential fast stream.
  const auto f = data::hurricane3d(12, 20, 20);
  Options fast;
  fast.eb_abs = 1e-3;
  fast.exec.mode = HotPathMode::kFast;
  const auto golden = compress(f.values, f.dims, fast);

  const std::string path = testing::TempDir() + "exec_policy_turbo_" +
                           std::to_string(::getpid()) + ".sza";
  {
    archive::ArchiveWriter writer(
        path, {.exec = {.mode = HotPathMode::kTurbo, .threads = 2}});
    std::vector<std::uint8_t> racing;
    std::thread racer(
        [&] { racing = compress(f.values, f.dims, fast); });
    for (int t = 0; t < 3; ++t)
      writer.append_field("v/t" + std::to_string(t), f.values, f.dims,
                          Dims{6, 10, 10}, "sz14", 1e-3);
    racer.join();
    writer.finish();
    EXPECT_EQ(racing, golden);
  }
  // The turbo archive itself stays bound-conformant.
  archive::ArchiveReader reader(path);
  const auto back = reader.read<float>("v/t1");
  ASSERT_EQ(back.size(), f.values.size());
  for (std::size_t i = 0; i < f.values.size(); ++i)
    ASSERT_LE(std::fabs(static_cast<double>(f.values[i]) -
                        static_cast<double>(back[i])),
              1e-3);
  std::remove(path.c_str());
}

TEST(ExecPolicyConcurrency, ConcurrentParallelCodecsWithDistinctPolicies) {
  // Two whole-field slab compressions racing on separate pools with
  // different modes: each must equal its own sequential-policy stream.
  const auto f = data::climate2d(64, 64);
  Options fast, turbo;
  fast.eb_abs = turbo.eb_abs = 1e-3;
  fast.exec.mode = HotPathMode::kFast;
  turbo.exec.mode = HotPathMode::kTurbo;
  fast.exec.threads = 2;
  turbo.exec.threads = 2;

  const auto golden_fast = parallel_compress(f.values, f.dims, fast, 4);
  const auto golden_turbo = parallel_compress(f.values, f.dims, turbo, 4);

  ParallelResult a, b;
  std::thread ta([&] { a = parallel_compress(f.values, f.dims, fast, 4); });
  std::thread tb([&] { b = parallel_compress(f.values, f.dims, turbo, 4); });
  ta.join();
  tb.join();
  EXPECT_EQ(a.stream, golden_fast.stream);
  EXPECT_EQ(b.stream, golden_turbo.stream);
}

}  // namespace
}  // namespace sz14
