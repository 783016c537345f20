// Per-call ExecPolicy contract: the execution strategy (pool, entropy
// backend) is plain per-call state and every codec call owns its buffers,
// so
//  - N threads compressing simultaneously with DIFFERENT policies produce
//    exactly the streams sequential runs with those policies produce (the
//    north-star mixed-backend scenario; run under TSan by the CI tsan
//    job),
//  - repeated calls are byte-identical across dtypes, ranks and backends,
//  - the parallel codec takes its pool from the policy,
//  - an ArchiveWriter's policy does not perturb unrelated concurrent
//    compress() calls.
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

constexpr EntropyBackend kAllBackends[] = {EntropyBackend::kHuffman,
                                           EntropyBackend::kRans};
constexpr int kBackends = 2;

const char* backend_name(EntropyBackend b) {
  return b == EntropyBackend::kHuffman ? "huffman" : "rans";
}

template <typename T>
std::vector<T> to_dtype(const std::vector<float>& v) {
  return std::vector<T>(v.begin(), v.end());
}

TEST(ExecPolicyConcurrency, MixedBackendThreadsMatchSequentialStreams) {
  const auto f = data::climate2d(48, 64);
  Options base;
  base.eb_abs = 1e-3;

  // Sequential golden stream per backend.
  std::vector<std::uint8_t> golden[kBackends];
  for (int b = 0; b < kBackends; ++b) {
    Options o = base;
    o.exec.entropy = kAllBackends[b];
    golden[b] = compress(f.values, f.dims, o);
  }
  ASSERT_NE(golden[0], golden[1]);

  // 4 threads per backend, all compressing at once with per-call policies.
  constexpr int kPerBackend = 4;
  std::vector<std::uint8_t> streams[kBackends * kPerBackend];
  {
    std::vector<std::thread> threads;
    for (int b = 0; b < kBackends; ++b) {
      for (int t = 0; t < kPerBackend; ++t) {
        threads.emplace_back([&, b, t] {
          Options o = base;
          o.exec.entropy = kAllBackends[b];
          streams[b * kPerBackend + t] = compress(f.values, f.dims, o);
        });
      }
    }
    for (auto& th : threads) th.join();
  }
  for (int b = 0; b < kBackends; ++b)
    for (int t = 0; t < kPerBackend; ++t)
      EXPECT_EQ(streams[b * kPerBackend + t], golden[b])
          << backend_name(kAllBackends[b]) << " thread " << t;
}

TEST(ExecPolicyConcurrency, ConcurrentDecodeBitIdentical) {
  // Concurrent decodes all match the sequential decode.
  const auto f = data::hurricane3d(10, 16, 16);
  Options opts;
  opts.eb_abs = 1e-3;
  const auto stream = compress(f.values, f.dims, opts);
  const auto golden = decompress(stream).data;

  std::vector<float> outs[6];
  {
    std::vector<std::thread> threads;
    for (int i = 0; i < 6; ++i)
      threads.emplace_back([&, i] { outs[i] = decompress(stream).data; });
    for (auto& th : threads) th.join();
  }
  for (int i = 0; i < 6; ++i) EXPECT_EQ(outs[i], golden) << i;
}

template <typename T>
void repeat_roundtrips() {
  // Every stream and reconstruction of a repeated call must match the
  // first call's bit for bit.
  const Dims shapes[] = {Dims{257}, Dims{23, 17}, Dims{9, 11, 13},
                         Dims{4096}};
  for (const EntropyBackend backend : kAllBackends) {
    for (const Dims& dims : shapes) {
      const auto f32 = data::smooth1d(dims.count());
      const auto values = to_dtype<T>(f32.values);

      Options opts;
      opts.eb_abs = 1e-3;
      opts.exec.entropy = backend;
      const auto a = compress(std::span<const T>(values), dims, opts);
      const auto b = compress(std::span<const T>(values), dims, opts);
      ASSERT_EQ(a, b) << backend_name(backend)
                      << " dims=" << dims.to_string();

      std::vector<T> first(dims.count()), second(dims.count());
      (void)decompress_into(a, std::span<T>(first));
      (void)decompress_into(a, std::span<T>(second));
      ASSERT_EQ(first, second)
          << backend_name(backend) << " dims=" << dims.to_string();
    }
  }
}

TEST(ExecPolicyTest, RepeatsAreByteIdenticalAcrossDtypesAndRanks) {
  repeat_roundtrips<float>();
  repeat_roundtrips<double>();
}

TEST(ExecPolicyConcurrency, PoolWorkersCompressAtOnce) {
  // Archive-style batch: many block compressions at once on a pool, each
  // matching the sequential stream.
  const auto f = data::climate2d(40, 50);
  Options base;
  base.eb_abs = 1e-3;
  const auto golden = compress(f.values, f.dims, base);

  ThreadPool pool(4);
  constexpr std::size_t kTasks = 32;
  std::vector<std::vector<std::uint8_t>> streams(kTasks);
  pool.run_batch(kTasks, [&](std::size_t i) {
    streams[i] = compress(f.values, f.dims, base);
  });
  for (std::size_t i = 0; i < kTasks; ++i) EXPECT_EQ(streams[i], golden) << i;
}

TEST(ExecPolicyTest, ParallelPoolComesFromPolicy) {
  const auto f = data::climate2d(64, 48);
  Options opts;
  opts.eb_abs = 1e-3;
  ThreadPool pool(3);
  Options with_pool = opts;
  with_pool.exec.pool = &pool;
  const auto via_policy = parallel_compress(f.values, f.dims, with_pool, 6);

  Options with_threads = opts;
  with_threads.exec.threads = 2;
  const auto via_private =
      parallel_compress(f.values, f.dims, with_threads, 6);
  EXPECT_EQ(via_policy.stream, via_private.stream);

  const auto out = parallel_decompress(via_policy.stream, with_pool.exec);
  for (std::size_t i = 0; i < f.values.size(); ++i)
    ASSERT_LE(std::fabs(static_cast<double>(f.values[i]) -
                        static_cast<double>(out.data[i])),
              1e-3);
}

TEST(ExecPolicyConcurrency, RansArchiveWriterDoesNotPerturbOtherCalls) {
  // A writer's policy is per-writer state: a Huffman compression racing a
  // rANS ingest must stay bit-identical to the sequential Huffman stream.
  const auto f = data::hurricane3d(12, 20, 20);
  Options huffman;
  huffman.eb_abs = 1e-3;
  const auto golden = compress(f.values, f.dims, huffman);

  const std::string path = testing::TempDir() + "exec_policy_rans_" +
                           std::to_string(::getpid()) + ".sza";
  {
    archive::ArchiveWriter writer(
        path, {.exec = {.threads = 2, .entropy = EntropyBackend::kRans}});
    std::vector<std::uint8_t> racing;
    std::thread racer(
        [&] { racing = compress(f.values, f.dims, huffman); });
    for (int t = 0; t < 3; ++t)
      writer.append_field("v/t" + std::to_string(t), f.values, f.dims,
                          Dims{6, 10, 10}, "sz14", 1e-3);
    racer.join();
    writer.finish();
    EXPECT_EQ(racing, golden);
  }
  // The rANS archive itself stays bound-conformant.
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
  // different backends: each must equal its own sequential-policy stream.
  const auto f = data::climate2d(64, 64);
  Options huffman, rans;
  huffman.eb_abs = rans.eb_abs = 1e-3;
  rans.exec.entropy = EntropyBackend::kRans;
  huffman.exec.threads = 2;
  rans.exec.threads = 2;

  const auto golden_huffman = parallel_compress(f.values, f.dims, huffman, 4);
  const auto golden_rans = parallel_compress(f.values, f.dims, rans, 4);
  ASSERT_NE(golden_huffman.stream, golden_rans.stream);

  ParallelResult a, b;
  std::thread ta(
      [&] { a = parallel_compress(f.values, f.dims, huffman, 4); });
  std::thread tb([&] { b = parallel_compress(f.values, f.dims, rans, 4); });
  ta.join();
  tb.join();
  EXPECT_EQ(a.stream, golden_huffman.stream);
  EXPECT_EQ(b.stream, golden_rans.stream);
}

}  // namespace
}  // namespace sz14
