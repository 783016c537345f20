#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "baselines/fpzip_like.hpp"
#include "baselines/gzip_like.hpp"
#include "common/rng.hpp"
#include "data/generators.hpp"
#include "metrics/metrics.hpp"

namespace sz14::baselines {
namespace {

/// Bit-exact comparison, treating NaN payloads as equal bits.
void expect_bitexact(std::span<const float> a, std::span<const float> b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto ba = std::bit_cast<std::uint32_t>(a[i]);
    const auto bb = std::bit_cast<std::uint32_t>(b[i]);
    ASSERT_EQ(ba, bb) << "at " << i;
  }
}

class LosslessCodecs : public ::testing::TestWithParam<const char*> {
 protected:
  std::unique_ptr<CompressorBase> codec() {
    const std::string name = GetParam();
    if (name == "gzip") return std::make_unique<Gzip>();
    return std::make_unique<Fpzip>();
  }
};

TEST_P(LosslessCodecs, ReportsLossless) { EXPECT_FALSE(codec()->lossy()); }

TEST_P(LosslessCodecs, Climate2DBitExact) {
  const auto f = data::climate2d(48, 64);
  auto c = codec();
  const auto stream = c->compress(f.values, f.dims, 0.0);
  expect_bitexact(f.values, c->decompress(stream));
}

TEST_P(LosslessCodecs, Hurricane3DBitExact) {
  const auto f = data::hurricane3d(6, 20, 20);
  auto c = codec();
  const auto stream = c->compress(f.values, f.dims, 0.0);
  expect_bitexact(f.values, c->decompress(stream));
}

TEST_P(LosslessCodecs, NonFiniteAndDenormalBitExact) {
  std::vector<float> values(256);
  Rng rng(91);
  for (auto& v : values) v = static_cast<float>(rng.normal());
  values[3] = std::numeric_limits<float>::quiet_NaN();
  values[60] = std::numeric_limits<float>::infinity();
  values[61] = -std::numeric_limits<float>::infinity();
  values[100] = std::numeric_limits<float>::denorm_min();
  values[101] = -0.0f;
  auto c = codec();
  const auto stream = c->compress(values, Dims{16, 16}, 0.0);
  expect_bitexact(values, c->decompress(stream));
}

TEST_P(LosslessCodecs, RandomNoiseBitExact) {
  Rng rng(93);
  std::vector<float> values(5000);
  for (auto& v : values)
    v = std::bit_cast<float>(static_cast<std::uint32_t>(rng.next()));
  // Replace any accidental NaN-adjacent junk? No — arbitrary bits must
  // survive a lossless codec verbatim, including NaNs.
  auto c = codec();
  const auto stream = c->compress(values, Dims{5000}, 0.0);
  expect_bitexact(values, c->decompress(stream));
}

TEST_P(LosslessCodecs, SizeMismatchThrows) {
  const auto f = data::smooth1d(64);
  auto c = codec();
  EXPECT_THROW((void)c->compress(f.values, Dims{63}, 0.0),
               std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(Codecs, LosslessCodecs,
                         ::testing::Values("gzip", "fpzip"));

TEST(GzipBehaviour, LimitedFactorOnFloatData) {
  // The paper's premise: lossless byte compressors top out around 2:1 on
  // scientific floats (Sec. I / Fig. 6 GZIP curve).
  const auto f = data::climate2d(96, 128);
  Gzip gzip;
  const auto stream = gzip.compress(f.values, f.dims, 0.0);
  const double cf = sz14::compression_factor(
      f.values.size() * sizeof(float), stream.size());
  EXPECT_GT(cf, 0.8);
  EXPECT_LT(cf, 2.5);
}

TEST(FpzipBehaviour, BeatsGzipOnSmoothFields) {
  // Prediction exploits smoothness that byte-level LZ77 cannot see.
  const auto f = data::hurricane3d(6, 32, 32, 44, 1);  // smooth pressure
  Gzip gzip;
  Fpzip fpzip;
  const auto g = gzip.compress(f.values, f.dims, 0.0);
  const auto p = fpzip.compress(f.values, f.dims, 0.0);
  EXPECT_LT(p.size(), g.size());
}

TEST(FpzipBehaviour, MalformedStreamThrows) {
  Fpzip fpzip;
  const std::vector<std::uint8_t> junk = {9, 9, 9};
  EXPECT_THROW((void)fpzip.decompress(junk), std::runtime_error);
}

TEST(Registry, EveryListedNameConstructs) {
  const auto names = compressor_names();
  EXPECT_GE(names.size(), 7u);  // six paper codecs + zfp-rate
  for (const auto& name : names) {
    const auto codec = make_compressor(name);
    ASSERT_NE(codec, nullptr) << name;
    // "zfp-rate" is the fixed-rate alias of the Zfp class.
    if (name != "zfp-rate") {
      EXPECT_EQ(codec->name(), name);
    }
  }
  EXPECT_THROW((void)make_compressor("nope"), std::invalid_argument);
}

}  // namespace
}  // namespace sz14::baselines
