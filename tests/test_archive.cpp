#include "archive/archive.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>
#include <unistd.h>

#include "common/metrics.hpp"
#include "core/format.hpp"
#include "data/io.hpp"

namespace sz14::archive {
namespace {

std::string tmp_path(const std::string& name) {
  return testing::TempDir() + "sza_" + std::to_string(::getpid()) +
         "_" + name;
}

std::vector<float> smooth_field(const Dims& dims) {
  std::vector<float> v(dims.count());
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = static_cast<float>(std::sin(0.01 * static_cast<double>(i)) +
                              0.3 * std::cos(0.07 * static_cast<double>(i)));
  return v;
}

std::vector<double> smooth_field64(const Dims& dims) {
  std::vector<double> v(dims.count());
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = std::sin(0.01 * static_cast<double>(i)) * 1e3;
  return v;
}

// ----------------------------------------------------------------- registry

TEST(ArchiveCodec, TableLookups) {
  EXPECT_GE(codec_table().size(), 4u);
  const CodecOps* sz = codec_by_name("sz14");
  ASSERT_NE(sz, nullptr);
  EXPECT_EQ(sz->id, kCodecSz14);
  EXPECT_TRUE(sz->lossy);
  EXPECT_NE(sz->compress64, nullptr);
  EXPECT_EQ(codec_by_id(kCodecGzip)->lossy, false);
  EXPECT_EQ(codec_by_name("nope"), nullptr);
  EXPECT_EQ(codec_by_id(0), nullptr);
  EXPECT_EQ(codec_by_id(255), nullptr);
  // Ids are stable on-disk format: pin them.
  EXPECT_EQ(codec_by_name("zfp_like")->id, kCodecZfp);
  EXPECT_EQ(codec_by_name("fpzip_like")->id, kCodecFpzip);
  EXPECT_EQ(codec_by_name("gzip_like")->id, kCodecGzip);
}

// ---------------------------------------------------------------- BlockGrid

TEST(BlockGrid, GridArithmetic) {
  const BlockGrid g(Dims{10, 7}, Dims{4, 3});
  EXPECT_EQ(g.blocks_along(0), 3u);
  EXPECT_EQ(g.blocks_along(1), 3u);
  EXPECT_EQ(g.block_count(), 9u);
  // Last block on each axis is clipped.
  EXPECT_EQ(g.block_extents(8), Dims({2, 1}));
  std::array<std::size_t, kMaxDims> origin{};
  g.block_origin(8, origin);
  EXPECT_EQ(origin[0], 8u);
  EXPECT_EQ(origin[1], 6u);
}

TEST(BlockGrid, OversizedBlockClipsToOneBlock) {
  const BlockGrid g(Dims{5, 6}, Dims{100, 100});
  EXPECT_EQ(g.block_count(), 1u);
  EXPECT_EQ(g.block_extents(0), Dims({5, 6}));
}

TEST(BlockGrid, RankMismatchThrows) {
  EXPECT_THROW(BlockGrid(Dims{5, 6}, Dims{5}), std::invalid_argument);
}

TEST(BlockGrid, Intersection) {
  const BlockGrid g(Dims{8, 8}, Dims{4, 4});
  Region r;
  r.rank = 2;
  r.origin = {3, 3};
  r.extent = {2, 2};
  // The 2x2 slab at (3,3) straddles all four 4x4 blocks.
  for (std::size_t i = 0; i < 4; ++i) EXPECT_TRUE(g.intersects(i, r));
  r.origin = {0, 0};
  r.extent = {4, 4};
  EXPECT_TRUE(g.intersects(0, r));
  EXPECT_FALSE(g.intersects(1, r));
  EXPECT_FALSE(g.intersects(2, r));
  EXPECT_FALSE(g.intersects(3, r));
}

// -------------------------------------------------------------- round trips

TEST(Archive, MultiFieldRoundTripF32AndF64) {
  const std::string path = tmp_path("multifield.sza");
  const Dims dims{12, 16, 10};
  const auto f32_data = smooth_field(dims);
  const auto f64_data = smooth_field64(dims);
  // Each lossy field keeps its own bound, four decades apart.
  const double eb32 = 1e-2;
  const double eb64 = 1e-6;
  {
    ArchiveWriter w(path, {.exec = {.threads = 2}});
    w.append_field("lossy32", std::span<const float>(f32_data), dims,
                   Dims{4, 8, 8}, "sz14", eb32);
    w.append_field("lossy64", std::span<const double>(f64_data), dims,
                   Dims{6, 8, 4}, "sz14", eb64);
    w.append_field("exact32", std::span<const float>(f32_data), dims,
                   Dims{12, 16, 10}, "fpzip_like", 0.0);
    w.append_field("exact64", std::span<const double>(f64_data), dims,
                   Dims{4, 4, 4}, "gzip_like", 0.0);
    w.finish();
  }
  ArchiveReader r(path, {.threads = 2});
  ASSERT_EQ(r.fields().size(), 4u);
  EXPECT_EQ(r.field("lossy32").dims, dims);
  EXPECT_EQ(r.field("lossy64").dtype, kDtypeF64);
  EXPECT_EQ(r.field("lossy32").eb_abs, eb32);
  EXPECT_EQ(r.field("lossy64").eb_abs, eb64);

  const auto lossy32 = r.read<float>("lossy32");
  ASSERT_EQ(lossy32.size(), dims.count());
  double max_err32 = 0;
  for (std::size_t i = 0; i < lossy32.size(); ++i)
    max_err32 = std::max<double>(max_err32,
                                 std::abs(lossy32[i] - f32_data[i]));
  EXPECT_LE(max_err32, eb32);
  // The loose field was not coded under the tight field's bound.
  EXPECT_GT(max_err32, eb64);

  const auto lossy64 = r.read<double>("lossy64");
  ASSERT_EQ(lossy64.size(), dims.count());
  double max_err64 = 0;
  for (std::size_t i = 0; i < lossy64.size(); ++i)
    max_err64 = std::max(max_err64, std::abs(lossy64[i] - f64_data[i]));
  EXPECT_LE(max_err64, eb64);

  EXPECT_EQ(r.read<float>("exact32"), f32_data);
  EXPECT_EQ(r.read<double>("exact64"), f64_data);
  std::remove(path.c_str());
}

// The acceptance-criterion test: an interior 3-D hyperslab decodes only the
// intersecting blocks (verified through the block-decode counter) and is
// bit-exact against the full decompress, for multiple codec backends.
TEST(Archive, ReadRegionDecodesOnlyIntersectingBlocks) {
  const Dims dims{20, 24, 16};
  const Dims block{8, 8, 8};
  const auto data = smooth_field(dims);
  Region region;
  region.rank = 3;
  region.origin = {9, 10, 3};
  region.extent = {4, 6, 5};

  for (const char* codec : {"sz14", "zfp_like", "gzip_like"}) {
    const std::string path = tmp_path(std::string("region_") + codec + ".sza");
    {
      ArchiveWriter w(path);
      w.append_field("v", std::span<const float>(data), dims, block, codec,
                     1e-3);
      w.finish();
    }
    ArchiveReader r(path);
    const BlockGrid grid(dims, block);
    std::size_t expected_touched = 0;
    for (std::size_t i = 0; i < grid.block_count(); ++i)
      if (grid.intersects(i, region)) ++expected_touched;
    ASSERT_GT(expected_touched, 0u);
    ASSERT_LT(expected_touched, grid.block_count());

    const auto full = r.read<float>("v");
    EXPECT_EQ(r.blocks_decoded(), grid.block_count()) << codec;

    r.reset_counters();
    const auto slab = r.read<float>("v", region);
    EXPECT_EQ(r.blocks_decoded(), expected_touched) << codec;

    ASSERT_EQ(slab.size(), region.count());
    std::size_t idx = 0, mismatches = 0;
    for (std::size_t i = 0; i < region.extent[0]; ++i)
      for (std::size_t j = 0; j < region.extent[1]; ++j)
        for (std::size_t k = 0; k < region.extent[2]; ++k) {
          const std::size_t lin =
              (region.origin[0] + i) * dims.stride(0) +
              (region.origin[1] + j) * dims.stride(1) +
              (region.origin[2] + k);
          // Bit-exact: both paths decode the same stored blocks.
          if (slab[idx++] != full[lin]) ++mismatches;
        }
    EXPECT_EQ(mismatches, 0u) << codec;
    std::remove(path.c_str());
  }
}

// Cache-off region reads decode each touched block only over the box from
// its origin to the region's far corner; cached reads decode whole blocks.
// For every codec row, a region ending on each plane, row and column of a
// block must read bit-identically through both paths and as the same
// slice of a whole-field read.
template <typename T>
void expect_box_reads_match(const std::string& codec,
                            EntropyBackend entropy) {
  const Dims dims{20, 12, 10};
  const Dims block{8, 8, 8};  // blocks: [0,8) [8,16) [16,20) x [0,8) [8,12)
                              // x [0,8) [8,10)
  std::vector<T> data(dims.count());
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<T>(std::sin(0.013 * static_cast<double>(i)) +
                             0.2 * std::cos(0.31 * static_cast<double>(i)));
  const std::string what =
      codec + (entropy == EntropyBackend::kRans ? "/rans" : "") +
      (std::is_same_v<T, double> ? "/f64" : "/f32");
  const std::string path = tmp_path("box_" + codec + ".sza");
  {
    ArchiveWriter w(path, {.exec = {.entropy = entropy}});
    w.append_field("v", std::span<const T>(data), dims, block, codec, 1e-3);
    w.finish();
  }
  ArchiveReader cold(path, {.threads = 2});
  ArchiveReader cached(path, {.threads = 2});
  cached.set_cache_capacity(std::size_t{64} << 20);
  const auto whole = cold.read<T>("v");
  // One axis sweeps every end; the other two end inside their first block
  // or inside a later one.
  constexpr std::size_t kOtherEnds[2][3] = {{5, 6, 5}, {13, 11, 9}};
  for (std::size_t axis = 0; axis < 3; ++axis)
    for (const auto& ends : kOtherEnds)
      for (std::size_t end = 1; end <= dims.extent(axis); ++end) {
        Region region;
        region.rank = 3;
        for (std::size_t a = 0; a < 3; ++a) {
          const std::size_t e = a == axis ? end : ends[a];
          region.origin[a] = (e - 1) / 2;
          region.extent[a] = e - region.origin[a];
        }
        const auto a = cold.read<T>("v", region);
        const auto b = cached.read<T>("v", region);
        ASSERT_EQ(a.size(), region.count()) << what;
        ASSERT_EQ(b.size(), region.count()) << what;
        std::size_t idx = 0, mismatches = 0;
        for (std::size_t i = 0; i < region.extent[0]; ++i)
          for (std::size_t j = 0; j < region.extent[1]; ++j)
            for (std::size_t k = 0; k < region.extent[2]; ++k, ++idx) {
              const std::size_t lin =
                  (region.origin[0] + i) * dims.stride(0) +
                  (region.origin[1] + j) * dims.stride(1) +
                  region.origin[2] + k;
              if (std::memcmp(&a[idx], &whole[lin], sizeof(T)) != 0 ||
                  std::memcmp(&b[idx], &whole[lin], sizeof(T)) != 0)
                ++mismatches;
            }
        EXPECT_EQ(mismatches, 0u)
            << what << " axis " << axis << " end " << end << " others "
            << ends[0] << "/" << ends[1] << "/" << ends[2];
      }
  std::remove(path.c_str());
}

TEST(Archive, BoxDecodedRegionsMatchFullDecodeForEveryCodec) {
  for (const char* codec : {"sz14", "zfp_like", "fpzip_like", "gzip_like"})
    expect_box_reads_match<float>(codec, EntropyBackend::kHuffman);
  expect_box_reads_match<float>("sz14", EntropyBackend::kRans);
  expect_box_reads_match<double>("sz14", EntropyBackend::kHuffman);
  expect_box_reads_match<double>("sz14", EntropyBackend::kRans);
  expect_box_reads_match<double>("gzip_like", EntropyBackend::kHuffman);
}

TEST(Archive, BoxDecodedRegionReadRepairsFromParity) {
  const std::string path = tmp_path("box_parity.sza");
  const Dims dims{16, 16};
  const auto data = smooth_field(dims);
  {
    ArchiveWriter w(path, {.parity_group = 2});
    w.append_field("v", std::span<const float>(data), dims, Dims{8, 8},
                   "sz14", 1e-3);
    w.finish();
  }
  std::vector<float> whole;
  std::uint64_t target = 0;
  {
    ArchiveReader probe(path);
    whole = probe.read<float>("v");
    target = probe.field("v").blocks[0].offset + 3;
  }
  auto bytes = data::read_bytes(path);
  bytes[static_cast<std::size_t>(target)] ^= 0xFF;
  data::write_bytes(path, bytes);

  // Rows 1..2, columns 2..6 of block 0: a 3x7 box of a damaged block.
  ArchiveReader r(path);
  Region region;
  region.rank = 2;
  region.origin = {1, 2};
  region.extent = {2, 5};
  const auto slab = r.read<float>("v", region);
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 5; ++j)
      EXPECT_EQ(slab[i * 5 + j], whole[(1 + i) * 16 + 2 + j]);
  EXPECT_EQ(metric(r.metrics(), "read_repairs"), 1u);
  EXPECT_EQ(r.blocks_decoded(), 1u);
  std::remove(path.c_str());
}

TEST(Archive, Rank1AndSingleBlockEdgeCases) {
  const std::string path = tmp_path("edge.sza");
  const Dims dims{100};
  const auto data = smooth_field(dims);
  {
    ArchiveWriter w(path);
    // Block larger than the field: exactly one block.
    w.append_field("one", std::span<const float>(data), dims, Dims{1000},
                   "sz14", 1e-3);
    w.append_field("many", std::span<const float>(data), dims, Dims{16},
                   "gzip_like", 0.0);
    w.finish();
  }
  ArchiveReader r(path);
  EXPECT_EQ(r.field("one").blocks.size(), 1u);
  EXPECT_EQ(r.field("many").blocks.size(), 7u);

  // Whole-field region on a single-block field touches that one block.
  const auto out = r.read<float>("one", Region::whole(dims));
  EXPECT_EQ(out.size(), 100u);
  EXPECT_EQ(r.blocks_decoded(), 1u);

  // Interior rank-1 slice of the multi-block field.
  Region mid;
  mid.rank = 1;
  mid.origin = {40};
  mid.extent = {10};
  r.reset_counters();
  const auto slice = r.read<float>("many", mid);
  EXPECT_EQ(r.blocks_decoded(), 2u);  // elements 40..49 span blocks 2 and 3
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(slice[i], data[40 + i]);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------- integrity

TEST(Archive, CorruptedBlockPayloadRejected) {
  const std::string path = tmp_path("corrupt_block.sza");
  const Dims dims{32, 32};
  const auto data = smooth_field(dims);
  {
    ArchiveWriter w(path);
    w.append_field("v", std::span<const float>(data), dims, Dims{16, 16},
                   "sz14", 1e-3);
    w.finish();
  }
  // Flip one bit inside the first block's payload.
  auto bytes = data::read_bytes(path);
  ArchiveReader probe(path);
  const auto off = probe.field("v").blocks[0].offset + 3;
  bytes[off] ^= 0x40;
  data::write_bytes(path, bytes);

  ArchiveReader r(path);  // footer itself is intact, open succeeds
  EXPECT_THROW((void)r.read<float>("v"), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Archive, CorruptedFooterRejectedAtOpen) {
  const std::string path = tmp_path("corrupt_footer.sza");
  const Dims dims{16, 16};
  const auto data = smooth_field(dims);
  {
    ArchiveWriter w(path);
    w.append_field("v", std::span<const float>(data), dims, Dims{8, 8},
                   "gzip_like", 0.0);
    w.finish();
  }
  auto bytes = data::read_bytes(path);
  // Flip a byte inside the footer (just before the 16-byte trailer).
  bytes[bytes.size() - kTrailerSize - 2] ^= 0xFF;
  data::write_bytes(path, bytes);
  EXPECT_THROW(ArchiveReader{path}, std::runtime_error);
  std::remove(path.c_str());
}

TEST(Archive, TruncatedOrForeignFilesRejected) {
  const std::string path = tmp_path("truncated.sza");
  data::write_bytes(path, std::vector<std::uint8_t>(6, 0x00));
  EXPECT_THROW(ArchiveReader{path}, std::runtime_error);
  // Right size, wrong magic everywhere.
  data::write_bytes(path, std::vector<std::uint8_t>(64, 0x11));
  EXPECT_THROW(ArchiveReader{path}, std::runtime_error);
  std::remove(path.c_str());
}

// -------------------------------------------------------------- API misuse

TEST(Archive, WriterRejectsBadUsage) {
  const std::string path = tmp_path("misuse.sza");
  const Dims dims{8, 8};
  const auto data = smooth_field(dims);
  ArchiveWriter w(path);
  w.append_field("v", std::span<const float>(data), dims, Dims{4, 4}, "sz14",
                 1e-3);
  // Duplicate name, unknown codec, shape mismatch, f64 on an f32-only codec.
  EXPECT_THROW(w.append_field("v", std::span<const float>(data), dims,
                              Dims{4, 4}, "sz14", 1e-3),
               std::invalid_argument);
  EXPECT_THROW(w.append_field("w", std::span<const float>(data), dims,
                              Dims{4, 4}, "lzma", 1e-3),
               std::invalid_argument);
  EXPECT_THROW(w.append_field("w", std::span<const float>(data), Dims{9, 9},
                              Dims{4, 4}, "sz14", 1e-3),
               std::invalid_argument);
  const std::vector<double> d64(dims.count(), 1.0);
  EXPECT_THROW(w.append_field("w", std::span<const double>(d64), dims,
                              Dims{4, 4}, "zfp_like", 1e-3),
               std::invalid_argument);
  w.finish();
  EXPECT_THROW(w.append_field("w", std::span<const float>(data), dims,
                              Dims{4, 4}, "sz14", 1e-3),
               std::logic_error);
  std::remove(path.c_str());
}

TEST(Archive, ReaderRejectsBadRegionsAndNames) {
  const std::string path = tmp_path("reader_misuse.sza");
  const Dims dims{8, 8};
  const auto data = smooth_field(dims);
  {
    ArchiveWriter w(path);
    w.append_field("v", std::span<const float>(data), dims, Dims{4, 4},
                   "sz14", 1e-3);
    w.finish();
  }
  ArchiveReader r(path);
  EXPECT_THROW((void)r.read<float>("missing"), std::invalid_argument);
  EXPECT_THROW((void)r.read<double>("v"), std::invalid_argument);

  Region bad;
  bad.rank = 1;  // rank mismatch
  bad.origin = {0};
  bad.extent = {4};
  EXPECT_THROW((void)r.read<float>("v", bad), std::invalid_argument);

  bad.rank = 2;
  bad.origin = {6, 0};
  bad.extent = {4, 4};  // exceeds bounds
  EXPECT_THROW((void)r.read<float>("v", bad), std::invalid_argument);

  bad.origin = {0, 0};
  bad.extent = {4, 0};  // empty extent
  EXPECT_THROW((void)r.read<float>("v", bad), std::invalid_argument);
  std::remove(path.c_str());
}

TEST(Archive, FooterCarriesMinMaxSummary) {
  const std::string path = tmp_path("summary.sza");
  const Dims dims{4, 4};
  std::vector<float> data(16);
  for (std::size_t i = 0; i < 16; ++i) data[i] = static_cast<float>(i);
  {
    ArchiveWriter w(path);
    w.append_field("v", std::span<const float>(data), dims, Dims{4, 4},
                   "gzip_like", 0.0);
    w.finish();
  }
  ArchiveReader r(path);
  ASSERT_EQ(r.field("v").blocks.size(), 1u);
  EXPECT_EQ(r.field("v").blocks[0].min, 0.0);
  EXPECT_EQ(r.field("v").blocks[0].max, 15.0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sz14::archive
