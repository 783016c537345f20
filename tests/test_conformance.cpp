// Error-bound conformance suite for the codec's one exact quantizer.
//
// For every finite input point the reconstruction satisfies
// |x - x'| <= eb, with non-finite points restored bit-exactly (raw escape
// path).  Adversarial inputs target the places where the quantizer's
// divide-and-round is most sensitive: values landing exactly on interval
// boundaries and half-interval midpoints (round-half-away ties), denormals,
// and bounds spanning many ULP scales; f32 and f64, every walk (1-layer
// anti-diagonal, multi-layer wavefront, rank 1 and the rank-4 generic
// walk).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "core/compressor.hpp"
#include "data/generators.hpp"

namespace sz14 {
namespace {

template <typename T>
void check_conformance(std::span<const T> data, std::span<const T> out,
                       double eb, const char* what) {
  ASSERT_EQ(data.size(), out.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    const double x = static_cast<double>(data[i]);
    if (!std::isfinite(x)) {
      // Raw escape path: bit-exact restoration.
      EXPECT_EQ(std::memcmp(&data[i], &out[i], sizeof(T)), 0)
          << what << ": non-finite point " << i << " not bit-exact";
      continue;
    }
    const double err = std::fabs(x - static_cast<double>(out[i]));
    ASSERT_LE(err, eb) << what << ": bound violated at " << i << " (x=" << x
                       << " x'=" << static_cast<double>(out[i]) << ")";
  }
}

template <typename T>
std::vector<T> roundtrip(std::span<const T> data, const Dims& dims,
                         const Options& opts) {
  const auto stream = compress(data, dims, opts);
  if constexpr (sizeof(T) == 4) {
    return decompress(stream).data;
  } else {
    return decompress64(stream).data;
  }
}

template <typename T>
void roundtrip_conformance(std::vector<T> values, const Dims& dims, double eb,
                           const char* what) {
  Options opts;
  opts.eb_abs = eb;
  const auto out = roundtrip<T>(values, dims, opts);
  check_conformance<T>(values, out, eb, what);
}

// --- field-level: adversarial shapes through the full codec ---------------

TEST(Conformance, IntervalBoundaryLattice2D) {
  // Every value an exact multiple of eb: offsets land exactly on interval
  // edges everywhere.  64-bit lattice values are exact, so the
  // boundary cases are hit bit-for-bit, not approximately.
  const double eb = 0.125;  // power of two: k * eb exact in both precisions
  std::vector<double> v(96 * 80);
  std::uint64_t state = 1;
  for (std::size_t i = 0; i < v.size(); ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    v[i] = static_cast<double>(static_cast<int>(state >> 60) - 8) *
           eb;  // lattice in [-8eb, 7eb]
  }
  roundtrip_conformance<double>(std::move(v), Dims({96, 80}), eb,
                                "boundary lattice f64");
}

TEST(Conformance, IntervalBoundaryLattice2DF32) {
  const double eb = 0.125;
  std::vector<float> v(96 * 80);
  std::uint64_t state = 7;
  for (std::size_t i = 0; i < v.size(); ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    v[i] = static_cast<float>(
        static_cast<double>(static_cast<int>(state >> 60) - 8) * eb);
  }
  roundtrip_conformance<float>(std::move(v), Dims({96, 80}), eb,
                               "boundary lattice f32");
}

TEST(Conformance, HalfIntervalMidpoints1D) {
  // Offsets at exact half intervals — where round-half-away ties live.
  const double eb = 0.25;
  std::vector<double> v(4096);
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = static_cast<double>(i % 31) * eb +
           ((i % 2) ? 0.5 * eb : -0.5 * eb);
  roundtrip_conformance<double>(std::move(v), Dims({4096}), eb,
                                "half-interval midpoints");
}

TEST(Conformance, DenormalsAndTinyValues) {
  std::vector<float> v(2048);
  const float den = std::numeric_limits<float>::denorm_min();
  const float tiny = std::numeric_limits<float>::min();
  for (std::size_t i = 0; i < v.size(); ++i) {
    switch (i % 4) {
      case 0: v[i] = den * static_cast<float>(1 + i % 7); break;
      case 1: v[i] = -den * static_cast<float>(1 + i % 5); break;
      case 2: v[i] = tiny * static_cast<float>(i % 3); break;
      default: v[i] = static_cast<float>(i) * 1e-6f; break;
    }
  }
  roundtrip_conformance<float>(std::move(v), Dims({2048}), 1e-7,
                               "denormals f32");
}

TEST(Conformance, NonFiniteValuesRestoredBitExact) {
  std::vector<float> v = data::climate2d(32, 48).values;
  v[7] = std::numeric_limits<float>::quiet_NaN();
  v[100] = std::numeric_limits<float>::infinity();
  v[555] = -std::numeric_limits<float>::infinity();
  roundtrip_conformance<float>(std::move(v), Dims({32, 48}), 1e-3,
                               "non-finite f32");
}

TEST(Conformance, ErrorBoundAcrossUlpScales) {
  // One smooth field, bounds spanning 24 orders of magnitude: the scaled
  // offset (x - pred) / 2eb ranges from huge to tiny, and kept-mantissa
  // truncation goes from everything to nothing.
  const auto f = data::hurricane3d(12, 24, 24);
  for (const double eb : {1e-18, 1e-9, 1e-6, 1e-3, 1e-1, 1.0, 1e6}) {
    roundtrip_conformance<float>(f.values, f.dims, eb, "ulp-scale f32");
  }
}

TEST(Conformance, UlpScales64) {
  std::vector<double> v(16 * 20 * 20);
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = 1e8 * std::sin(0.02 * static_cast<double>(i)) +
           1e-6 * static_cast<double>(i % 97);
  for (const double eb : {1e-12, 1e-4, 1.0, 1e5}) {
    roundtrip_conformance<double>(v, Dims({16, 20, 20}), eb, "ulp-scale f64");
  }
}

TEST(Conformance, Rank4TakesGenericWalk) {
  // Rank 4 runs the fast body over the generic walk — the bound must hold
  // there too.
  std::vector<float> v(6 * 8 * 10 * 12);
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = std::sin(0.05f * static_cast<float>(i)) * 10.0f;
  roundtrip_conformance<float>(std::move(v), Dims({6, 8, 10, 12}), 1e-2,
                               "rank-4 f32");
}

TEST(Conformance, DecorrelateModeHoldsBound) {
  const auto f = data::climate2d(64, 64);
  Options opts;
  opts.eb_abs = 1e-3;
  opts.decorrelate = true;
  const auto out = decompress(compress(f.values, f.dims, opts));
  check_conformance<float>(f.values, out.data, 1e-3, "decorrelate");
}

TEST(Conformance, MultiLayerPredictors) {
  const auto f = data::climate2d(48, 48);
  for (unsigned layers = 1; layers <= 3; ++layers) {
    Options opts;
    opts.eb_abs = 5e-3;
    opts.layers = layers;
    const auto out = decompress(compress(f.values, f.dims, opts));
    check_conformance<float>(f.values, out.data, 5e-3, "multi-layer");
  }
}

TEST(Conformance, StreamDecodesToCompressorReconstruction) {
  // The decoder replays precisely the values the compress walk
  // reconstructed.
  const auto f = data::hurricane3d(10, 20, 20);
  Options opts;
  opts.eb_abs = 1e-3;
  const auto stream = compress(f.values, f.dims, opts);
  const auto pass = prediction_quantization_pass(
      f.values, f.dims, opts.layers, opts.interval_bits, opts.eb_abs);
  const auto out = decompress(stream).data;
  EXPECT_EQ(out, pass.reconstructed);
  check_conformance<float>(f.values, out, 1e-3, "stream decode");
}

TEST(Conformance, IsDeterministic) {
  const auto f = data::climate2d(64, 96);
  Options opts;
  opts.eb_abs = 1e-3;
  const auto a = compress(f.values, f.dims, opts);
  const auto b = compress(f.values, f.dims, opts);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace sz14
