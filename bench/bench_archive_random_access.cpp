// Random-access study for the SZA archive: full-stream decompress vs
// block-indexed region reads, swept over block sizes.  The smaller the
// block, the fewer wasted values a hyperslab read decodes — at the cost of
// per-block header overhead and a larger footer index.  A second section
// measures the SERVING scenario through bench::run_serving: several threads
// hammering one shared reader with a skewed (hot-set-heavy) region mix,
// with the decoded-block LRU cache off and with a hot-set budget, every
// read verified against a sequential read.  Emits a JSON array (bench_util
// JsonWriter) with one record per (codec, block-size) point plus one per
// serving configuration; exits 1 if any serving read diverged or threw.
// Scratch archives live in a per-run temporary directory.
#include <cstdio>
#include <string>
#include <vector>

#include "archive/archive.hpp"
#include "bench_util.hpp"
#include "common/timer.hpp"

namespace {

using namespace sz14;
using namespace sz14::archive;

constexpr int kReps = 5;

int run() {
  // Hurricane-class 3D field (paper: 100x500x500, laptop-scaled).
  const auto field = bench::hurricane();
  const Dims& dims = field.dims;
  const double eb = 1e-3 * bench::value_range(field.values);

  // An interior hyperslab of ~1.6% of the domain: the "one variable, one
  // region, one timestep" access pattern the whole-file container cannot
  // serve without decoding everything.
  Region region;
  region.rank = 3;
  region.origin = {dims.extent(0) / 3, dims.extent(1) / 3,
                   dims.extent(2) / 3};
  region.extent = {std::max<std::size_t>(1, dims.extent(0) / 8),
                   std::max<std::size_t>(1, dims.extent(1) / 4),
                   std::max<std::size_t>(1, dims.extent(2) / 4)};

  std::fprintf(stderr, "field %s, region %zux%zux%zu at %zux%zux%zu\n",
               dims.to_string().c_str(), region.extent[0], region.extent[1],
               region.extent[2], region.origin[0], region.origin[1],
               region.origin[2]);

  const bench::ScratchDir scratch("bench_archive_random_access");
  bench::JsonWriter json;
  for (const char* codec : {"sz14", "gzip_like"}) {
    for (const std::size_t bs : {8u, 16u, 32u, 64u}) {
      const Dims block{std::min<std::size_t>(bs, dims.extent(0)),
                       std::min<std::size_t>(bs, dims.extent(1)),
                       std::min<std::size_t>(bs, dims.extent(2))};
      const std::string path =
          scratch.file(std::string(codec) + "_" + std::to_string(bs) + ".sza");
      double write_s = 0.0;
      {
        Timer t;
        ArchiveWriter w(path);
        w.append_field("v", std::span<const float>(field.values), dims,
                       block, codec, eb);
        w.finish();
        write_s = t.seconds();
      }
      ArchiveReader r(path);
      const std::size_t total_blocks = r.field("v").blocks.size();
      const std::uint64_t bytes = r.field("v").payload_bytes();

      const double full_s =
          bench::best_of(kReps, [&] { (void)r.read_field("v"); });
      r.reset_counters();
      const double region_s =
          bench::best_of(kReps, [&] { (void)r.read_region("v", region); });
      const std::size_t touched =
          static_cast<std::size_t>(r.blocks_decoded()) / kReps;

      json.begin_record();
      json.kv("codec", codec);
      json.kv("block", bs);
      json.kv("blocks_total", total_blocks);
      json.kv("blocks_touched", touched);
      json.kv("payload_bytes", static_cast<std::size_t>(bytes));
      json.kv("write_s", write_s);
      json.kv("full_decompress_s", full_s);
      json.kv("region_read_s", region_s);
      json.kv("speedup", full_s / region_s);
      json.end_record();
    }
  }

  // ------------------------------------------------------------- serving
  // Concurrent readers against ONE shared reader: a skewed region mix
  // (80% of reads over a small hot set), measured without the cache, with
  // a cache sized for the hot set, and with the sweep repeated to show
  // the steady-state hit rate.
  int rc = 0;
  {
    const std::string path = scratch.file("serving.sza");
    const Dims block{std::min<std::size_t>(32, dims.extent(0)),
                     std::min<std::size_t>(32, dims.extent(1)),
                     std::min<std::size_t>(32, dims.extent(2))};
    {
      ArchiveWriter w(path);
      w.append_field("v", std::span<const float>(field.values), dims, block,
                     "sz14", eb);
      w.finish();
    }
    const auto regions = bench::serving_regions(dims, 32, 24);
    constexpr std::size_t kHot = 8;
    constexpr std::size_t kServeThreads = 4;
    constexpr std::size_t kReadsPerThread = 32;
    // Budget sized for the HOT SET only — roughly its decoded footprint
    // (hot regions overlap on ~half the grid's blocks), well under the
    // full field — so the 80/20 mix actually drives the measurement: hot
    // blocks stay mostly resident while cold reads churn the LRU.
    const std::size_t cache_budget = kHot * block.count() * sizeof(float);

    // Ground truth from an uncached reader, so the cached configuration's
    // first sweep still starts cold.
    std::vector<std::vector<float>> truth;
    {
      ArchiveReader direct(path, 0);
      for (const auto& r : regions) truth.push_back(direct.read_region("v", r));
    }

    for (const bool cached : {false, true}) {
      ArchiveReader reader(path, 0);
      if (cached) reader.set_cache_capacity(cache_budget);
      const auto sweep = [&] {
        reader.reset_counters();
        return bench::run_serving(kServeThreads, kReadsPerThread, 1000, kHot,
                                  regions, truth, [&](std::size_t) {
                                    return [&](const Region& r) {
                                      return reader.read_region("v", r);
                                    };
                                  });
      };
      // One untimed sweep so the cached config measures steady state.
      const bench::ServingRun warm = sweep();
      const bench::ServingRun hot = sweep();
      const double hit_rate = bench::cache_hit_rate(reader.cache_hits(),
                                                    reader.cache_misses());
      json.begin_record();
      json.kv("codec", "sz14");
      json.kv("scenario", cached ? "serving_cache" : "serving_nocache");
      json.kv("threads", kServeThreads);
      json.kv("reads", hot.reads);
      json.kv("failed_reads", warm.failed + hot.failed);
      json.kv("cold_reads_per_s", warm.reads_per_s());
      json.kv("reads_per_s", hot.reads_per_s());
      json.kv("blocks_decoded",
              static_cast<std::size_t>(reader.blocks_decoded()));
      json.kv("cache_hit_rate", hit_rate);
      json.end_record();
      if (warm.failed + hot.failed != 0) rc = 1;
      std::fprintf(stderr,
                   "serving %-8s %zu threads: %7.1f reads/s, %llu decodes, "
                   "hit rate %.2f\n",
                   cached ? "cache" : "nocache", kServeThreads,
                   hot.reads_per_s(),
                   static_cast<unsigned long long>(reader.blocks_decoded()),
                   hit_rate);
    }
  }
  return rc;
}

}  // namespace

int main() {
  try {
    return run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_archive_random_access: error: %s\n",
                 e.what());
    return 1;
  }
}
