#include "core/pointwise.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.hpp"
#include "data/generators.hpp"
#include "metrics/metrics.hpp"

namespace sz14 {
namespace {

void expect_pw_bound(std::span<const float> orig, std::span<const float> recon,
                     double pwrel) {
  ASSERT_EQ(orig.size(), recon.size());
  for (std::size_t i = 0; i < orig.size(); ++i) {
    const float x = orig[i];
    const float y = recon[i];
    if (!std::isfinite(x) || x == 0.0f ||
        std::fpclassify(x) == FP_SUBNORMAL) {
      const bool same = (std::isnan(x) && std::isnan(y)) || (x == y);
      ASSERT_TRUE(same) << "exceptional value not exact at " << i;
      continue;
    }
    ASSERT_LE(std::fabs(static_cast<double>(y) - static_cast<double>(x)),
              pwrel * std::fabs(static_cast<double>(x)))
        << "pointwise bound violated at " << i << " (" << x << " vs " << y
        << ")";
  }
}

TEST(Pointwise, HugeRangeFieldRespectsPointwiseBound) {
  // The showcase: a 14-decade field where any absolute bound is either
  // useless for the small values or hopeless for the big ones.
  const auto f = data::huge_range2d(64, 64);
  const double pwrel = 1e-3;
  const auto stream = compress_pointwise_rel(f.values, f.dims, pwrel);
  const auto out = decompress_pointwise_rel(stream);
  EXPECT_EQ(out.dims, f.dims);
  EXPECT_DOUBLE_EQ(out.pwrel, pwrel);
  expect_pw_bound(f.values, out.data, pwrel);
}

TEST(Pointwise, SignsSurvive) {
  const auto f = data::climate2d(48, 48);  // mixed-sign field
  const double pwrel = 1e-2;
  const auto out =
      decompress_pointwise_rel(compress_pointwise_rel(f.values, f.dims, pwrel));
  std::size_t negatives = 0;
  for (std::size_t i = 0; i < f.values.size(); ++i) {
    if (f.values[i] != 0.0f) {
      ASSERT_EQ(std::signbit(out.data[i]), std::signbit(f.values[i]))
          << "at " << i;
    }
    negatives += std::signbit(f.values[i]);
  }
  ASSERT_GT(negatives, 0u) << "test field should contain negative values";
  expect_pw_bound(f.values, out.data, pwrel);
}

TEST(Pointwise, ZerosNonFiniteAndDenormalsExact) {
  std::vector<float> v(256);
  Rng rng(121);
  for (auto& x : v)
    x = static_cast<float>(rng.uniform(-10, 10));
  v[0] = 0.0f;
  v[1] = -0.0f;
  v[10] = std::numeric_limits<float>::quiet_NaN();
  v[20] = std::numeric_limits<float>::infinity();
  v[30] = -std::numeric_limits<float>::infinity();
  v[40] = std::numeric_limits<float>::denorm_min();
  const auto out =
      decompress_pointwise_rel(compress_pointwise_rel(v, Dims{256}, 1e-3));
  expect_pw_bound(v, out.data, 1e-3);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(out.data[1]),
            std::bit_cast<std::uint32_t>(-0.0f));
  EXPECT_EQ(out.data[40], std::numeric_limits<float>::denorm_min());
}

TEST(Pointwise, InvalidBoundThrows) {
  const auto f = data::smooth1d(64);
  EXPECT_THROW((void)compress_pointwise_rel(f.values, f.dims, 0.0),
               std::invalid_argument);
  EXPECT_THROW((void)compress_pointwise_rel(f.values, f.dims, 1.5),
               std::invalid_argument);
  EXPECT_THROW((void)compress_pointwise_rel(f.values, f.dims, -0.1),
               std::invalid_argument);
}

TEST(Pointwise, MalformedStreamThrows) {
  const std::vector<std::uint8_t> junk = {9, 9, 9, 9, 9};
  EXPECT_THROW((void)decompress_pointwise_rel(junk), std::runtime_error);
  // A plain SZ14 stream is not a pointwise container.
  const auto f = data::smooth1d(64);
  Options opts;
  opts.eb_abs = 0.1;
  const auto plain = compress(f.values, f.dims, opts);
  EXPECT_THROW((void)decompress_pointwise_rel(plain), std::runtime_error);
}

TEST(Pointwise, BeatsAbsoluteBoundOnHugeRangeAtEqualQuality) {
  // Guaranteeing pwrel = 1e-3 with an absolute bound requires
  // eb_abs = 1e-3 * min|x|, which on a 14-decade field is absurdly tight;
  // the log-domain mode achieves it at a fraction of the size.
  const auto f = data::huge_range2d(64, 64);
  float min_abs = std::numeric_limits<float>::max();
  for (float v : f.values)
    if (v != 0.0f) min_abs = std::min(min_abs, std::fabs(v));
  Options abs_opts;
  abs_opts.eb_abs = 1e-3 * static_cast<double>(min_abs);
  const auto abs_stream = compress(f.values, f.dims, abs_opts);
  const auto pw_stream = compress_pointwise_rel(f.values, f.dims, 1e-3);
  EXPECT_LT(pw_stream.size(), abs_stream.size() / 2);
}

class PointwiseSweep : public ::testing::TestWithParam<double> {};

TEST_P(PointwiseSweep, BoundHoldsAcrossFields) {
  const double pwrel = GetParam();
  for (const auto& f :
       {data::climate2d(32, 48), data::xray2d(32, 32),
        data::huge_range2d(32, 32)}) {
    const auto out = decompress_pointwise_rel(
        compress_pointwise_rel(f.values, f.dims, pwrel));
    expect_pw_bound(f.values, out.data, pwrel);
  }
}

INSTANTIATE_TEST_SUITE_P(Bounds, PointwiseSweep,
                         ::testing::Values(1e-1, 1e-2, 1e-3, 1e-4, 1e-5));

}  // namespace
}  // namespace sz14
