// Error-bound conformance suite for the turbo hot path.
//
// HotPathMode::kTurbo replaces the compress-side divide with a reciprocal
// multiply, so its streams are NOT bit-identical to kFast's — the
// contract is weaker and is exactly what these tests pin down: for every
// finite input point, the reconstruction satisfies |x - x'| <= eb, with
// non-finite points restored bit-exactly (raw escape path).  Adversarial
// inputs target the places where reciprocal rounding can differ from the
// divide: values landing exactly on interval boundaries and half-interval
// midpoints, denormals, and bounds spanning many ULP scales; f32 and f64.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/exec_policy.hpp"
#include "core/compressor.hpp"
#include "core/quantizer.hpp"
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
  for (const HotPathMode mode : {HotPathMode::kTurbo, HotPathMode::kFast}) {
    opts.exec.mode = mode;
    const auto out = roundtrip<T>(values, dims, opts);
    check_conformance<T>(values, out, eb, what);
  }
}

// --- quantizer-level: turbo decisions stay inside the bound ---------------

TEST(TurboQuantizer, BoundaryValuesStayConformantOrDemote) {
  const double eb = 1e-3;
  const LinearQuantizer q(8, eb);
  // Offsets exactly on interval boundaries (odd multiples of eb) and
  // midpoints (even multiples), plus epsilon-perturbed neighbours: the
  // turbo interval index may differ from the exact-divide one, but any
  // accepted point must reconstruct within eb.
  const double pred = 1.0;
  for (int k = -260; k <= 260; ++k) {
    for (const double nudge :
         {0.0, 1e-19, -1e-19, 1e-12, -1e-12, 0.49999 * eb, -0.49999 * eb}) {
      const double real = pred + k * eb + nudge;
      const auto r = q.quantize_turbo<double>(real, pred);
      if (r.predictable) {
        EXPECT_LE(std::fabs(static_cast<double>(r.reconstructed) - real), eb)
            << "k=" << k << " nudge=" << nudge;
      }
      const auto f = q.quantize<double>(real, pred);
      if (f.predictable) {
        EXPECT_LE(std::fabs(static_cast<double>(f.reconstructed) - real), eb);
      }
    }
  }
}

TEST(TurboQuantizer, AgreesWithExactDivideAwayFromBoundaries) {
  // Off-boundary offsets round identically: the reciprocal multiply loses
  // at most one ulp, which only matters within a hair of a half-interval.
  const double eb = 0.01;
  const LinearQuantizer q(8, eb);
  for (int k = -100; k <= 100; ++k) {
    const double real = 5.0 + (k + 0.25) * 2.0 * eb;
    const auto a = q.quantize<double>(real, 5.0);
    const auto b = q.quantize_turbo<double>(real, 5.0);
    EXPECT_EQ(a.predictable, b.predictable) << k;
    if (a.predictable && b.predictable) {
      EXPECT_EQ(a.code, b.code) << k;
      EXPECT_EQ(a.reconstructed, b.reconstructed) << k;
    }
  }
}

// --- field-level: adversarial shapes through the full codec ---------------

TEST(TurboConformance, IntervalBoundaryLattice2D) {
  // Every value an exact multiple of eb: reciprocal rounding lands exactly
  // on interval edges everywhere.  64-bit lattice values are exact, so the
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

TEST(TurboConformance, IntervalBoundaryLattice2DF32) {
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

TEST(TurboConformance, HalfIntervalMidpoints1D) {
  // Offsets at exact half intervals — where round-half-away ties live.
  const double eb = 0.25;
  std::vector<double> v(4096);
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = static_cast<double>(i % 31) * eb +
           ((i % 2) ? 0.5 * eb : -0.5 * eb);
  roundtrip_conformance<double>(std::move(v), Dims({4096}), eb,
                                "half-interval midpoints");
}

TEST(TurboConformance, DenormalsAndTinyValues) {
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

TEST(TurboConformance, NonFiniteValuesRestoredBitExact) {
  std::vector<float> v = data::climate2d(32, 48).values;
  v[7] = std::numeric_limits<float>::quiet_NaN();
  v[100] = std::numeric_limits<float>::infinity();
  v[555] = -std::numeric_limits<float>::infinity();
  roundtrip_conformance<float>(std::move(v), Dims({32, 48}), 1e-3,
                               "non-finite f32");
}

TEST(TurboConformance, ErrorBoundAcrossUlpScales) {
  // One smooth field, bounds spanning 24 orders of magnitude: inv_2eb
  // ranges from huge to tiny, and kept-mantissa truncation goes from
  // everything to nothing.
  const auto f = data::hurricane3d(12, 24, 24);
  for (const double eb : {1e-18, 1e-9, 1e-6, 1e-3, 1e-1, 1.0, 1e6}) {
    roundtrip_conformance<float>(f.values, f.dims, eb, "ulp-scale f32");
  }
}

TEST(TurboConformance, UlpScales64) {
  std::vector<double> v(16 * 20 * 20);
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = 1e8 * std::sin(0.02 * static_cast<double>(i)) +
           1e-6 * static_cast<double>(i % 97);
  for (const double eb : {1e-12, 1e-4, 1.0, 1e5}) {
    roundtrip_conformance<double>(v, Dims({16, 20, 20}), eb, "ulp-scale f64");
  }
}

TEST(TurboConformance, Rank4TakesGenericWalk) {
  // Rank-4 turbo runs the generic walk with the reciprocal body — the
  // bound must hold there too.
  std::vector<float> v(6 * 8 * 10 * 12);
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = std::sin(0.05f * static_cast<float>(i)) * 10.0f;
  roundtrip_conformance<float>(std::move(v), Dims({6, 8, 10, 12}), 1e-2,
                               "rank-4 f32");
}

TEST(TurboConformance, DecorrelateModeHoldsBound) {
  const auto f = data::climate2d(64, 64);
  Options opts;
  opts.eb_abs = 1e-3;
  opts.decorrelate = true;
  opts.exec.mode = HotPathMode::kTurbo;
  const auto out = decompress(compress(f.values, f.dims, opts));
  check_conformance<float>(f.values, out.data, 1e-3, "decorrelate turbo");
}

TEST(TurboConformance, MultiLayerPredictors) {
  const auto f = data::climate2d(48, 48);
  for (unsigned layers = 1; layers <= 3; ++layers) {
    Options opts;
    opts.eb_abs = 5e-3;
    opts.layers = layers;
    opts.exec.mode = HotPathMode::kTurbo;
    const auto out = decompress(compress(f.values, f.dims, opts));
    check_conformance<float>(f.values, out.data, 5e-3, "multi-layer turbo");
  }
}

TEST(TurboConformance, TurboStreamDecodesToCompressorReconstruction) {
  // A turbo stream is an ordinary SZ-1.4 stream: the one exact decoder
  // replays precisely the values the turbo compress walk reconstructed.
  const auto f = data::hurricane3d(10, 20, 20);
  Options opts;
  opts.eb_abs = 1e-3;
  opts.exec.mode = HotPathMode::kTurbo;
  const auto stream = compress(f.values, f.dims, opts);
  const auto pass = prediction_quantization_pass(
      f.values, f.dims, opts.layers, opts.interval_bits, opts.eb_abs, false,
      opts.exec);
  const auto out = decompress(stream).data;
  EXPECT_EQ(out, pass.reconstructed);
  check_conformance<float>(f.values, out, 1e-3, "turbo stream decode");
}

TEST(TurboConformance, TurboIsDeterministic) {
  const auto f = data::climate2d(64, 96);
  Options opts;
  opts.eb_abs = 1e-3;
  opts.exec.mode = HotPathMode::kTurbo;
  const auto a = compress(f.values, f.dims, opts);
  const auto b = compress(f.values, f.dims, opts);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace sz14
