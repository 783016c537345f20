// Stream-format tests: header round trip, field validation, and golden
// pins of the serialized header bytes and of whole streams, so accidental
// format or codec changes are caught (bump kFormatVersion intentionally
// when the layout changes).
#include "core/format.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "common/checksum.hpp"
#include "common/rng.hpp"
#include "core/compressor.hpp"
#include "core/predictor.hpp"
#include "data/generators.hpp"
#include "parallel/parallel_codec.hpp"

namespace sz14 {
namespace {

TEST(Format, HeaderRoundTrip) {
  StreamHeader h;
  h.dims = Dims{7, 9, 11};
  h.eb_abs = 3.5e-4;
  h.dtype = kDtypeF64;
  h.interval_bits = 12;
  h.layers = 3;
  h.decorrelate = true;
  ByteWriter w;
  write_header(h, w);
  auto bytes = std::move(w).take();
  ByteReader r(bytes);
  const StreamHeader back = read_header(r);
  EXPECT_EQ(back.dims, h.dims);
  EXPECT_DOUBLE_EQ(back.eb_abs, h.eb_abs);
  EXPECT_EQ(back.dtype, kDtypeF64);
  EXPECT_EQ(back.interval_bits, 12);
  EXPECT_EQ(back.layers, 3);
  EXPECT_TRUE(back.decorrelate);
}

TEST(Format, GoldenHeaderBytes) {
  StreamHeader h;
  h.dims = Dims{2, 3};
  h.eb_abs = 0.5;
  ByteWriter w;
  write_header(h, w);
  const auto bytes = std::move(w).take();
  const std::uint8_t expected[] = {
      0x34, 0x31, 0x5A, 0x53,  // magic "SZ14" little-endian
      0x02,                    // version
      0x00,                    // dtype f32
      0x00,                    // flags
      0x02,                    // rank
      0x02, 0x03,              // extents
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xE0, 0x3F,  // 0.5 as f64 LE
      0x08,                    // interval bits
      0x01,                    // layers
  };
  ASSERT_EQ(bytes.size(), sizeof(expected));
  for (std::size_t i = 0; i < sizeof(expected); ++i)
    EXPECT_EQ(bytes[i], expected[i]) << "header byte " << i;
}

TEST(Format, UnknownFlagRejected) {
  StreamHeader h;
  h.dims = Dims{4};
  ByteWriter w;
  write_header(h, w);
  auto bytes = std::move(w).take();
  bytes[6] = 0x80;  // set an undefined flag bit
  ByteReader r(bytes);
  EXPECT_THROW((void)read_header(r), std::runtime_error);
}

TEST(Format, BadDtypeRejected) {
  StreamHeader h;
  h.dims = Dims{4};
  ByteWriter w;
  write_header(h, w);
  auto bytes = std::move(w).take();
  bytes[5] = 7;
  ByteReader r(bytes);
  EXPECT_THROW((void)read_header(r), std::runtime_error);
}

TEST(Format, WrongVersionRejected) {
  StreamHeader h;
  h.dims = Dims{4};
  ByteWriter w;
  write_header(h, w);
  auto bytes = std::move(w).take();
  bytes[4] = kFormatVersion + 1;
  ByteReader r(bytes);
  EXPECT_THROW((void)read_header(r), std::runtime_error);
}

/// Golden-stream input: per-axis integer triangle waves plus Rng noise and
/// rare spikes, scaled by a power of two — integer arithmetic only (no
/// libm), so the values, and therefore the pinned constants, are the same
/// on every platform.
template <typename T>
std::vector<T> golden_values(const Dims& dims, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<T> v(dims.count());
  CoordWalker walker(dims);
  for (std::size_t i = 0; i < v.size(); ++i, walker.advance()) {
    std::int64_t x = 0;
    for (std::size_t a = 0; a < dims.rank(); ++a) {
      const auto c = static_cast<std::int64_t>(walker.coord()[a]);
      const auto k = static_cast<std::int64_t>(a);
      const std::int64_t period = 23 + 6 * k;
      const std::int64_t phase = (c * (k + 2)) % period;
      x += (phase < period / 2 ? phase : period - phase) * 16;
    }
    x += static_cast<std::int64_t>(rng.below(9)) - 4;
    if (rng.below(97) == 0) x += 40000;  // unpredictable spike
    v[i] = static_cast<T>(x) / static_cast<T>(64);
  }
  return v;
}

struct GoldenCase {
  const char* name;
  Dims dims;
  bool f64;
  unsigned layers;
  bool decorrelate;
  bool rans;
  double eb;      // 0 selects the lossless fallback
  bool parallel;  // 3-chunk slab container (f32 only)
  std::size_t stream_bytes;
  std::uint32_t stream_crc;
  std::uint32_t decoded_crc;
};

template <typename T>
std::uint32_t crc_of(const std::vector<T>& v) {
  return crc32({reinterpret_cast<const std::uint8_t*>(v.data()),
                v.size() * sizeof(T)});
}

/// Returns {stream, crc32 of the decoded bytes} for one golden case.
std::pair<std::vector<std::uint8_t>, std::uint32_t> golden_run(
    const GoldenCase& gc) {
  Options opts;
  opts.eb_abs = gc.eb;
  opts.layers = gc.layers;
  opts.decorrelate = gc.decorrelate;
  if (gc.rans) opts.exec.entropy = EntropyBackend::kRans;
  const std::uint64_t seed = 17 + gc.dims.rank();
  if (gc.parallel) {
    opts.exec.threads = 2;
    const auto values = golden_values<float>(gc.dims, seed);
    auto stream = parallel_compress(values, gc.dims, opts, 3).stream;
    const auto crc =
        crc_of(parallel_decompress(stream, {.threads = 2}).data);
    return {std::move(stream), crc};
  }
  if (gc.f64) {
    const auto values = golden_values<double>(gc.dims, seed);
    auto stream = compress(std::span<const double>(values), gc.dims, opts);
    const auto crc = crc_of(decompress64(stream).data);
    return {std::move(stream), crc};
  }
  const auto values = golden_values<float>(gc.dims, seed);
  auto stream = compress(std::span<const float>(values), gc.dims, opts);
  const auto crc = crc_of(decompress(stream).data);
  return {std::move(stream), crc};
}

TEST(Format, GoldenStreams) {
  // Pins the exact bytes the codec writes and the exact values it decodes,
  // so a hot-path rewrite that changes either fails here.
  const GoldenCase cases[] = {
      {"r1 f32", Dims{1000}, false, 1, false, false, 0.05, false, 502,
       0xD301F3AC, 0x69A2F31D},
      {"r2 f32", Dims{37, 41}, false, 1, false, false, 0.05, false, 705,
       0xADE81786, 0xBB3A49D1},
      {"r3 f32", Dims{11, 13, 17}, false, 1, false, false, 0.05, false, 1419,
       0x562DBCEF, 0x2411A4A6},
      {"r4 f32", Dims{5, 6, 7, 8}, false, 1, false, false, 0.05, false, 1308,
       0x902D735D, 0x659617B7},
      {"r3 f64", Dims{11, 13, 17}, true, 1, false, false, 0.05, false, 1492,
       0xEFFE9A6B, 0x40B94941},
      {"r2 f64 L2", Dims{37, 41}, true, 2, false, false, 0.05, false, 1165,
       0xF32FBD37, 0xDE236503},
      {"r3 f64 rans", Dims{11, 13, 17}, true, 1, false, true, 0.05, false,
       1503, 0xB0DD2E1E, 0x40B94941},
      {"r2 f32 decorrelate", Dims{37, 41}, false, 1, true, false, 0.05, false,
       703, 0xFEB32D92, 0xB365FBF1},
      {"r3 f32 L2 rans", Dims{11, 13, 17}, false, 2, false, true, 0.05, false,
       2793, 0x2404FB7F, 0x697B3354},
      {"r1 f64 lossless", Dims{500}, true, 1, false, false, 0.0, false, 4218,
       0xF98946FB, 0x7E27F8BE},
      {"parallel huffman", Dims{24, 20, 18}, false, 1, false, false, 0.05,
       true, 4544, 0x8EF4CF9C, 0x5F109D98},
      {"parallel rans", Dims{24, 20, 18}, false, 1, false, true, 0.05, true,
       4540, 0xB3171CE9, 0x5F109D98},
  };
  for (const GoldenCase& gc : cases) {
    auto [stream, decoded_crc] = golden_run(gc);
    EXPECT_EQ(stream.size(), gc.stream_bytes) << gc.name;
    EXPECT_EQ(crc32(stream), gc.stream_crc) << gc.name;
    EXPECT_EQ(decoded_crc, gc.decoded_crc) << gc.name;
    if (!gc.parallel || gc.rans) continue;
    // parallel_compress writes only SZP3.  The legacy SZP2 layout is the
    // same minus the entropy-backend byte (offset 20 for this header:
    // magic 4, rank 1, three 1-byte extents, chunks 1, eb 8, m/n/decorrelate
    // 3), so rewrite the Huffman container as SZP2 and pin its decode too.
    ASSERT_EQ(stream[20], 0) << "entropy-backend byte moved";
    stream.erase(stream.begin() + 20);
    stream[0] = '2';
    EXPECT_EQ(crc_of(parallel_decompress(stream, {.threads = 2}).data),
              gc.decoded_crc)
        << "SZP2";
  }
}

TEST(Format, CodecParamsOutOfRangeRejectedInBothContainers) {
  // m, the layer count and eb come straight off the header in both
  // containers.  A value no compress() call writes is malformed input:
  // decoding throws std::runtime_error, never the std::invalid_argument
  // the quantizer or the predictor would raise.
  const Dims dims{12, 10, 8};
  const auto values = golden_values<float>(dims, 3);
  Options opts;
  opts.eb_abs = 0.05;
  opts.exec.threads = 2;
  struct Container {
    const char* name;
    std::vector<std::uint8_t> stream;
    std::size_t eb_at;  // then m at eb_at + 8, layers at eb_at + 9
    void (*decode)(std::span<const std::uint8_t>);
  };
  const Container containers[] = {
      // magic 4, version, dtype, flags, rank, three 1-byte extents
      {"SZ14", compress(std::span<const float>(values), dims, opts), 11,
       [](std::span<const std::uint8_t> s) { (void)decompress(s); }},
      // magic 4, rank, three 1-byte extents, chunks
      {"SZP3", parallel_compress(values, dims, opts, 3).stream, 9,
       [](std::span<const std::uint8_t> s) {
         (void)parallel_decompress(s, {.threads = 2});
       }},
  };
  const auto patched = [](const Container& c, std::size_t at, auto value) {
    auto s = c.stream;
    std::memcpy(s.data() + at, &value, sizeof value);
    return s;
  };
  for (const Container& c : containers) {
    ASSERT_EQ(c.stream[c.eb_at + 8], 8) << c.name << ": m moved";
    ASSERT_EQ(c.stream[c.eb_at + 9], 1) << c.name << ": layers moved";
    EXPECT_NO_THROW(c.decode(c.stream)) << c.name;
    for (const std::uint8_t m : {0, 1, 17, 40})
      EXPECT_THROW(c.decode(patched(c, c.eb_at + 8, m)), std::runtime_error)
          << c.name << " m=" << int{m};
    for (const std::uint8_t layers : {0, 9, 200})
      EXPECT_THROW(c.decode(patched(c, c.eb_at + 9, layers)),
                   std::runtime_error)
          << c.name << " layers=" << int{layers};
    for (const double eb : {-0.05, std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity()})
      EXPECT_THROW(c.decode(patched(c, c.eb_at, eb)), std::runtime_error)
          << c.name << " eb=" << eb;
  }
  // SZP3's entropy-backend byte (after decorrelate) names a table row.
  const Container& szp3 = containers[1];
  ASSERT_EQ(szp3.stream[szp3.eb_at + 11], 0) << "entropy byte moved";
  EXPECT_THROW(szp3.decode(patched(szp3, szp3.eb_at + 11, std::uint8_t{2})),
               std::runtime_error);
}

TEST(Format, CompressedStreamIsDeterministic) {
  // Same input + options must give byte-identical streams (no hidden
  // timestamps/randomness) — a requirement for the chunk-deterministic
  // parallel container.
  const auto f = data::climate2d(32, 32);
  Options opts;
  opts.eb_rel = 1e-3;
  EXPECT_EQ(compress(f.values, f.dims, opts), compress(f.values, f.dims, opts));
  opts.decorrelate = true;
  EXPECT_EQ(compress(f.values, f.dims, opts), compress(f.values, f.dims, opts));
}

}  // namespace
}  // namespace sz14
