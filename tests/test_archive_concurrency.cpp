// Concurrency suite for the archive serving layer: N threads hammering ONE
// shared ArchiveReader must produce bit-identical results to sequential
// reads — with and without the decoded-block cache — and the pool/cache
// machinery (once-init, LRU eviction, nested pool serving) must hold up
// under TSan.  This is the regression net for the PR-5 shared-ifstream
// race: the old reader interleaved seekg/read pairs across threads.
#include "archive/archive.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "parallel/thread_pool.hpp"

namespace sz14::archive {
namespace {

std::string tmp_path(const std::string& name) {
  return testing::TempDir() + "sza_conc_" + name;
}

std::vector<float> wavy_field(const Dims& dims) {
  std::vector<float> v(dims.count());
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = static_cast<float>(std::sin(0.013 * static_cast<double>(i)) +
                              0.4 * std::cos(0.05 * static_cast<double>(i)));
  return v;
}

std::vector<double> wavy_field64(const Dims& dims) {
  std::vector<double> v(dims.count());
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = std::cos(0.017 * static_cast<double>(i)) * 42.0;
  return v;
}

/// A multi-field, multi-block archive shared by the tests below.
std::string make_archive(const std::string& name) {
  const std::string path = tmp_path(name);
  const Dims dims{24, 20, 16};
  ArchiveWriter w(path, {.exec = {.threads = 2}});
  const auto f32 = wavy_field(dims);
  const auto f64 = wavy_field64(dims);
  w.append_field("lossy32", std::span<const float>(f32), dims, Dims{8, 8, 8},
                 "sz14", 1e-4);
  w.append_field("lossy64", std::span<const double>(f64), dims, Dims{8, 8, 8},
                 "sz14", 1e-4);
  w.append_field("exact32", std::span<const float>(f32), dims, Dims{8, 8, 8},
                 "gzip_like", 0.0);
  w.finish();
  return path;
}

/// Deterministic random region inside `dims`.
Region random_region(Rng& rng, const Dims& dims) {
  Region r;
  r.rank = dims.rank();
  for (std::size_t a = 0; a < r.rank; ++a) {
    r.extent[a] = 1 + rng.below(dims.extent(a));
    r.origin[a] = rng.below(dims.extent(a) - r.extent[a] + 1);
  }
  return r;
}

TEST(ArchiveConcurrency, HammeredReaderMatchesSequentialReads) {
  const std::string path = make_archive("hammer.sza");
  const Dims dims{24, 20, 16};
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kRegions = 24;

  ArchiveReader reader(path, {.threads = 2});

  // Sequential ground truth, one result set per (region, field).
  Rng rng(1234);
  std::vector<Region> regions;
  for (std::size_t i = 0; i < kRegions; ++i)
    regions.push_back(random_region(rng, dims));
  std::vector<std::vector<float>> want32, want_exact;
  std::vector<std::vector<double>> want64;
  for (const auto& r : regions) {
    want32.push_back(reader.read<float>("lossy32", r));
    want64.push_back(reader.read<double>("lossy64", r));
    want_exact.push_back(reader.read<float>("exact32", r));
  }

  // N threads hammer the SAME reader, each walking the regions from a
  // different start so distinct regions are always in flight together.
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t k = 0; k < kRegions; ++k) {
        const std::size_t i = (k + t * 3) % kRegions;
        if (reader.read<float>("lossy32", regions[i]) != want32[i])
          ++mismatches;
        if (reader.read<double>("lossy64", regions[i]) != want64[i])
          ++mismatches;
        if (reader.read<float>("exact32", regions[i]) != want_exact[i])
          ++mismatches;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  std::remove(path.c_str());
}

TEST(ArchiveConcurrency, ConcurrentWholeFieldReadsAreExact) {
  const std::string path = make_archive("fullfield.sza");
  ArchiveReader reader(path, {.threads = 2});
  const auto want = reader.read<float>("exact32");
  reader.reset_counters();

  constexpr std::size_t kThreads = 6;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      if (reader.read<float>("exact32") != want) ++mismatches;
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  // Cache off: every concurrent full read decoded every block.
  EXPECT_EQ(reader.blocks_decoded(),
            kThreads * reader.field("exact32").blocks.size());
  std::remove(path.c_str());
}

TEST(ArchiveConcurrency, CacheHitsSkipDecodeAndStayBitIdentical) {
  const std::string path = make_archive("cache.sza");
  ArchiveReader reader(path, {.threads = 2});
  reader.set_cache_capacity(64u << 20);  // roomy: whole archive fits

  Region hot;
  hot.rank = 3;
  hot.origin = {9, 6, 3};
  hot.extent = {8, 9, 10};
  const auto first = reader.read<float>("lossy32", hot);
  const auto decoded_once = reader.blocks_decoded();
  EXPECT_GT(decoded_once, 0u);

  const auto second = reader.read<float>("lossy32", hot);
  EXPECT_EQ(second, first);                           // cache is invisible
  EXPECT_EQ(reader.blocks_decoded(), decoded_once);   // ...and free
  EXPECT_GT(metric(reader.metrics(), "cache_hits"), 0u);

  // The other dtype shares the cache without type confusion.
  const auto w64 = reader.read<double>("lossy64", hot);
  EXPECT_EQ(reader.read<double>("lossy64", hot), w64);
  std::remove(path.c_str());
}

TEST(ArchiveConcurrency, HammeredCachedReaderMatchesAndCounts) {
  const std::string path = make_archive("cache_hammer.sza");
  const Dims dims{24, 20, 16};
  ArchiveReader reader(path, {.threads = 2});
  // Deliberately tight budget so eviction churns under concurrency.
  reader.set_cache_capacity(6 * 8 * 8 * 8 * sizeof(float));

  Rng rng(77);
  std::vector<Region> regions;
  for (std::size_t i = 0; i < 12; ++i)
    regions.push_back(random_region(rng, dims));
  std::vector<std::vector<float>> want;
  for (const auto& r : regions)
    want.push_back(reader.read<float>("lossy32", r));

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 6; ++t)
    threads.emplace_back([&, t] {
      for (std::size_t rep = 0; rep < 3; ++rep)
        for (std::size_t k = 0; k < regions.size(); ++k) {
          const std::size_t i = (k + t) % regions.size();
          if (reader.read<float>("lossy32", regions[i]) != want[i])
            ++mismatches;
        }
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_LE(metric(reader.metrics(), "cache_resident_bytes"), 6 * 8 * 8 * 8 * sizeof(float));
  std::remove(path.c_str());
}

TEST(ArchiveConcurrency, DisabledCacheCountsNothing) {
  const std::string path = make_archive("nocache.sza");
  ArchiveReader reader(path);
  (void)reader.read<float>("lossy32");
  (void)reader.read<float>("lossy32");
  EXPECT_EQ(metric(reader.metrics(), "cache_hits"), 0u);
  EXPECT_EQ(metric(reader.metrics(), "cache_misses"), 0u);
  EXPECT_EQ(metric(reader.metrics(), "cache_resident_bytes"), 0u);
  std::remove(path.c_str());
}

TEST(ArchiveConcurrency, ServesFromBorrowedPoolEvenReentrantly) {
  // The reader can borrow the caller's pool via ReaderOptions::pool —
  // including when read<T> is itself called FROM a task on that pool
  // (nested fan-out runs inline instead of deadlocking; thread_pool
  // reentrancy).
  const std::string path = make_archive("borrowed.sza");
  const Dims dims{24, 20, 16};
  ArchiveReader reader(path, {.pool = &shared_pool()});

  Rng rng(5);
  std::vector<Region> regions;
  for (std::size_t i = 0; i < 6; ++i)
    regions.push_back(random_region(rng, dims));
  std::vector<std::vector<float>> want;
  for (const auto& r : regions)
    want.push_back(reader.read<float>("lossy32", r));

  std::atomic<int> mismatches{0};
  shared_pool().run_batch(regions.size(), [&](std::size_t i) {
    if (reader.read<float>("lossy32", regions[i]) != want[i]) ++mismatches;
  });
  EXPECT_EQ(mismatches.load(), 0);
  std::remove(path.c_str());
}

TEST(ArchiveConcurrency, ResetCountersClearsStatsNotCache) {
  const std::string path = make_archive("reset.sza");
  ArchiveReader reader(path);
  reader.set_cache_capacity(64u << 20);
  const auto want = reader.read<float>("lossy32");
  reader.reset_counters();
  EXPECT_EQ(reader.blocks_decoded(), 0u);
  EXPECT_EQ(metric(reader.metrics(), "cache_hits"), 0u);
  // Cached data survived the stats reset: the re-read decodes nothing.
  EXPECT_EQ(reader.read<float>("lossy32"), want);
  EXPECT_EQ(reader.blocks_decoded(), 0u);
  EXPECT_GT(metric(reader.metrics(), "cache_hits"), 0u);
  std::remove(path.c_str());
}

// --- single-flight / request coalescing ------------------------------------

TEST(SingleFlightMap, LeaderDecodesFollowersShare) {
  SingleFlight flight;
  auto [entry, leader] = flight.begin(0, 7);
  ASSERT_TRUE(leader);

  // A second thread joining the same (field, block) must be a follower and
  // receive exactly the leader's published value.  The leader holds off
  // publishing until the follower has actually joined the flight —
  // otherwise the "follower" would win a fresh flight of its own.
  std::shared_ptr<const void> seen;
  std::atomic<bool> joined{false};
  std::thread follower([&] {
    auto [e, lead] = flight.begin(0, 7);
    EXPECT_FALSE(lead);
    joined.store(true);
    seen = flight.wait(*e);
  });
  while (!joined.load()) std::this_thread::yield();
  const auto value = std::make_shared<const std::vector<float>>(
      std::vector<float>{1.0f, 2.0f});
  flight.publish(0, 7, *entry, value, nullptr);
  follower.join();
  EXPECT_EQ(seen.get(), static_cast<const void*>(value.get()));
  EXPECT_EQ(metric(flight.metrics(), "coalesced_reads"), 1u);

  // publish() retired the entry: the next begin starts a fresh flight.
  auto [entry2, leader2] = flight.begin(0, 7);
  EXPECT_TRUE(leader2);
  flight.publish(0, 7, *entry2, value, nullptr);

  // Distinct keys never coalesce with each other.
  auto [a, la] = flight.begin(1, 7);
  auto [b, lb] = flight.begin(0, 8);
  EXPECT_TRUE(la);
  EXPECT_TRUE(lb);
  flight.publish(1, 7, *a, value, nullptr);
  flight.publish(0, 8, *b, value, nullptr);
}

TEST(SingleFlightMap, LeaderFailurePropagatesToFollowersNotHangs) {
  SingleFlight flight;
  auto [entry, leader] = flight.begin(3, 3);
  ASSERT_TRUE(leader);
  std::atomic<int> rethrown{0};
  std::atomic<bool> joined{false};
  std::thread follower([&] {
    auto [e, lead] = flight.begin(3, 3);
    EXPECT_FALSE(lead);
    joined.store(true);
    try {
      (void)flight.wait(*e);
    } catch (const std::runtime_error&) {
      ++rethrown;
    }
  });
  while (!joined.load()) std::this_thread::yield();
  flight.publish(3, 3, *entry, nullptr,
                 std::make_exception_ptr(std::runtime_error("CRC mismatch")));
  follower.join();
  EXPECT_EQ(rethrown.load(), 1);
  // The failed flight is retired too — the next reader retries fresh
  // instead of inheriting a poisoned entry.
  auto [entry2, leader2] = flight.begin(3, 3);
  EXPECT_TRUE(leader2);
  flight.publish(3, 3, *entry2, nullptr, nullptr);
}

// The coalescing contract on a real reader: cache + single-flight together
// make a cold concurrent burst decode each block EXACTLY once.  The leader
// re-probes the cache after winning leadership, which closes the window
// where a decode completing between a follower's cache miss and its
// begin() call would trigger a duplicate decode — that is what makes this
// equality deterministic rather than flaky.
TEST(ArchiveConcurrency, CoalescedColdBurstDecodesEachBlockExactlyOnce) {
  const std::string path = make_archive("coalesce_cold.sza");
  ArchiveReader reader(path, {.threads = 4});
  const auto want = reader.read<float>("lossy32");
  const std::size_t nblocks = reader.field("lossy32").blocks.size();
  reader.set_cache_capacity(64u << 20);
  reader.set_coalescing(true);
  reader.reset_counters();

  constexpr std::size_t kThreads = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      if (reader.read<float>("lossy32") != want) ++mismatches;
    });
  for (auto& th : threads) th.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(reader.blocks_decoded(), nblocks);
  // Every block visit beyond the unique decodes was served by the
  // single-flight map or the cache — the accounting is exact.
  EXPECT_EQ(metric(reader.metrics(), "coalesced_reads") + metric(reader.metrics(), "cache_hits"),
            kThreads * nblocks - nblocks);
  std::remove(path.c_str());
}

// Coalescing without the cache: simultaneous decodes still merge, and with
// no cache in play every block visit is either a leader decode or a
// coalesced wait — the two counters partition the total exactly.
TEST(ArchiveConcurrency, CoalescingAloneMergesSimultaneousDecodes) {
  const std::string path = make_archive("coalesce_nocache.sza");
  ArchiveReader reader(path, {.threads = 4});
  const auto want = reader.read<float>("lossy32");
  const std::size_t nblocks = reader.field("lossy32").blocks.size();
  reader.set_coalescing(true);
  reader.reset_counters();

  constexpr std::size_t kThreads = 6;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      if (reader.read<float>("lossy32") != want) ++mismatches;
    });
  for (auto& th : threads) th.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(reader.blocks_decoded() + metric(reader.metrics(), "coalesced_reads"),
            kThreads * nblocks);
  EXPECT_LE(reader.blocks_decoded(), kThreads * nblocks);
  std::remove(path.c_str());
}

TEST(ArchiveConcurrency, ResetCountersClearsCoalescedReads) {
  const std::string path = make_archive("coalesce_reset.sza");
  ArchiveReader reader(path, {.threads = 2});
  reader.set_coalescing(true);
  (void)reader.read<float>("lossy32");
  reader.reset_counters();
  EXPECT_EQ(metric(reader.metrics(), "coalesced_reads"), 0u);
  EXPECT_EQ(reader.blocks_decoded(), 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sz14::archive
