// Equivalence proofs for the dimension-specialized fused kernels
// (core/kernels): under every supported configuration the reordered walks
// (the anti-diagonal kernel at each of its lane widths, the row
// wavefront) must produce the same codes, bit-identical reconstructions
// and the same unpredictable bitstream as the seed's generic CoordWalker
// walk (detail::pq_compress_walk_generic, the oracle), and
// pq_decompress_walk must replay that reconstruction exactly.  Together
// with the golden streams in test_format.cpp this lets the hot path evolve
// without a format break.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "common/bitstream.hpp"
#include "common/rng.hpp"
#include "core/compressor.hpp"
#include "core/field_utils.hpp"
#include "core/kernels.hpp"
#include "data/generators.hpp"

namespace sz14 {
namespace {

/// Deterministic field with smooth structure, spikes, and non-finite /
/// near-denormal escapes so every kernel branch (predictable,
/// unpredictable-trunc, tiny, raw) is exercised.
std::vector<float> adversarial_values(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double base = std::sin(0.05 * static_cast<double>(i)) +
                        0.3 * std::cos(0.013 * static_cast<double>(i));
    double x = base + 0.01 * rng.normal();
    const double roll = rng.uniform();
    if (roll < 0.01) x *= 1e6;  // spike -> unpredictable
    v[i] = static_cast<float>(x);
  }
  if (n > 16) {
    v[3] = std::numeric_limits<float>::quiet_NaN();
    v[7] = std::numeric_limits<float>::infinity();
    v[11] = -std::numeric_limits<float>::infinity();
    v[13] = 1e-42f;  // denormal -> raw escape
    v[n / 2] = 0.0f;
  }
  return v;
}

template <typename T>
std::vector<T> to_dtype(const std::vector<float>& v) {
  if constexpr (std::is_same_v<T, float>) {
    return v;
  } else {
    return std::vector<double>(v.begin(), v.end());
  }
}

template <typename T>
void expect_bitwise_equal(const std::vector<T>& a, const std::vector<T>& b,
                          const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(T))) << what;
}

/// Wavefront walk vs. the generic-walk oracle at eb, then the decoder vs.
/// the oracle's reconstruction.  Returns the oracle reconstruction.
template <typename T>
std::vector<T> expect_walks_match(std::span<const T> data, const Dims& dims,
                                  unsigned layers, double eb,
                                  bool decorrelate, const std::string& what) {
  const LayerPredictor predictor(dims, layers);
  const LinearQuantizer quantizer(8, eb);
  const UnpredictableCodecT<T> unpred(eb);
  const std::size_t n = dims.count();
  std::vector<std::uint16_t> gen_codes(n), fast_codes(n);
  std::vector<T> gen_recon(n), fast_recon(n);
  BitWriter gen_bw, fast_bw;
  const detail::PassCounters gen = detail::pq_compress_walk_generic<T>(
      data, dims, predictor, quantizer, unpred, eb, decorrelate, gen_codes,
      gen_recon, gen_bw);
  const detail::PassCounters fast = detail::pq_compress_walk<T>(
      data, dims, predictor, quantizer, unpred, eb, decorrelate,
      HotPathMode::kFast, fast_codes, fast_recon, fast_bw);
  const auto gen_bits = std::move(gen_bw).finish();
  EXPECT_EQ(gen_codes, fast_codes) << what << ": codes";
  expect_bitwise_equal(gen_recon, fast_recon, what + ": reconstruction");
  EXPECT_EQ(gen_bits, std::move(fast_bw).finish())
      << what << ": unpredictable bits";
  EXPECT_EQ(gen.predictable, fast.predictable) << what;
  EXPECT_EQ(gen.strict_hits, fast.strict_hits) << what;

  std::vector<T> out(n);
  BitReader br(gen_bits);
  detail::pq_decompress_walk<T>(gen_codes, dims, dims.extents(), predictor,
                                quantizer, unpred, decorrelate, out, br);
  expect_bitwise_equal(gen_recon, out, what + ": decode");
  return gen_recon;
}

template <typename T>
DecompressResultT<T> decode_stream(std::span<const std::uint8_t> stream,
                                   const LeadBox& box = kWholeBox) {
  if constexpr (std::is_same_v<T, float>) {
    return decompress(stream, {}, box);
  } else {
    return decompress64(stream, {}, box);
  }
}

struct KernelCase {
  Dims dims;
  unsigned layers;
  bool relative;
  bool decorrelate;
};

template <typename T>
void run_equivalence(const KernelCase& kc) {
  const auto values = to_dtype<T>(
      adversarial_values(kc.dims.count(), 1000 + kc.dims.rank()));
  const std::span<const T> data(values);

  Options opts;
  if (kc.relative)
    opts.eb_rel = 1e-3;
  else
    opts.eb_abs = 1e-3;
  opts.layers = kc.layers;
  opts.decorrelate = kc.decorrelate;
  const double eb = resolve_error_bound_for(data, opts);
  const std::string what = "dims=" + kc.dims.to_string() +
                           " layers=" + std::to_string(kc.layers) +
                           " rel=" + std::to_string(kc.relative) +
                           " decorrelate=" + std::to_string(kc.decorrelate);
  const auto oracle =
      expect_walks_match(data, kc.dims, kc.layers, eb, kc.decorrelate, what);

  // End to end: the compress() stream decodes to the oracle's values.
  const auto stream = compress(data, kc.dims, opts);
  expect_bitwise_equal(oracle, decode_stream<T>(stream).data,
                       what + ": stream decode");

  // And the reconstruction must satisfy the bound.
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (!std::isfinite(static_cast<double>(values[i]))) continue;
    EXPECT_LE(std::fabs(static_cast<double>(values[i]) -
                        static_cast<double>(oracle[i])),
              eb)
        << "bound violated at " << i;
  }
}

std::vector<KernelCase> all_cases() {
  std::vector<KernelCase> cases;
  const Dims shapes[] = {Dims{257}, Dims{23, 17}, Dims{9, 11, 13}};
  for (const auto& d : shapes)
    for (unsigned layers : {1u, 2u, 3u})
      for (bool rel : {false, true})
        for (bool dec : {false, true})
          cases.push_back({d, layers, rel, dec});
  // Rank-4 runs the wavefront bodies over the generic walk; keep one case
  // to pin that the dispatch stays correct.
  cases.push_back({Dims{3, 4, 5, 6}, 1, false, false});
  return cases;
}

TEST(KernelEquivalence, Float32WalksMatchGenericWalk) {
  for (const auto& kc : all_cases()) run_equivalence<float>(kc);
}

TEST(KernelEquivalence, Float64WalksMatchGenericWalk) {
  for (const auto& kc : all_cases()) run_equivalence<double>(kc);
}

TEST(KernelEquivalence, EdgeShapesSmallerThanStencil) {
  // Extents smaller than the layer count force all-border rows/planes.
  for (const Dims& d : {Dims{1}, Dims{2}, Dims{1, 5}, Dims{5, 1},
                        Dims{2, 2, 7}, Dims{1, 1, 1}}) {
    KernelCase kc{d, 3, false, false};
    run_equivalence<float>(kc);
  }
}

TEST(KernelEquivalence, RealisticFieldsMatchOnEveryRank) {
  // The bench fields themselves, at test scale.
  const data::Field fields[] = {data::smooth1d(4096),
                                data::climate2d(48, 64),
                                data::hurricane3d(12, 16, 16)};
  for (const auto& f : fields) {
    Options opts;
    opts.eb_rel = 1e-4;
    const std::span<const float> data(f.values);
    const auto oracle = expect_walks_match(
        data, f.dims, 1, resolve_error_bound_for(data, opts), false, f.name);
    expect_bitwise_equal(oracle,
                         decompress(compress(f.values, f.dims, opts)).data,
                         f.name);
  }
}

// ------------------------------------------- anti-diagonal lane widths

/// The scalar turbo walk, in index order: LayerPredictor::predict and
/// LinearQuantizer::quantize_turbo, the reference arithmetic the turbo
/// kernels mirror.  Returns the walk's counters.
template <typename T>
detail::PassCounters turbo_oracle(std::span<const T> data, const Dims& dims,
                                  double eb, bool decorrelate,
                                  std::vector<std::uint16_t>& codes,
                                  std::vector<T>& recon, BitWriter& bw) {
  const LayerPredictor predictor(dims, 1);
  const LinearQuantizer quantizer(8, eb);
  const UnpredictableCodecT<T> unpred(eb);
  detail::PassCounters c;
  CoordWalker walker(dims);
  for (std::size_t i = 0; i < data.size(); ++i, walker.advance()) {
    double pred = predictor.predict<T>(recon, walker.coord(), i);
    if (decorrelate) pred += dither_for(i, eb);
    const QuantResultT<T> q = quantizer.quantize_turbo<T>(data[i], pred);
    codes[i] = q.code;
    recon[i] = q.predictable ? q.reconstructed : unpred.encode(data[i], bw);
    c.predictable += q.predictable ? 1 : 0;
  }
  return c;
}

/// Every lane width of the 1-layer kernel against the scalar oracles:
/// kFast against the generic walk (codes, reconstruction bits,
/// unpredictable bits, `predictable`, `strict_hits`), kTurbo against
/// turbo_oracle, and each width's decode against the oracle's values.
/// Returns the oracle's unpredictable count.
template <typename T>
std::size_t expect_lanes_match(std::span<const T> data, const Dims& dims,
                               double eb, bool decorrelate,
                               const std::string& what,
                               CodecScratch* scratch = nullptr) {
  const LayerPredictor predictor(dims, 1);
  const LinearQuantizer quantizer(8, eb);
  const UnpredictableCodecT<T> unpred(eb);
  const std::size_t n = dims.count();
  std::size_t unpredictable = 0;
  for (const HotPathMode mode : {HotPathMode::kFast, HotPathMode::kTurbo}) {
    const bool turbo = mode == HotPathMode::kTurbo;
    std::vector<std::uint16_t> want_codes(n);
    std::vector<T> want_recon(n);
    BitWriter want_bw;
    const detail::PassCounters want =
        turbo ? turbo_oracle<T>(data, dims, eb, decorrelate, want_codes,
                                want_recon, want_bw)
              : detail::pq_compress_walk_generic<T>(
                    data, dims, predictor, quantizer, unpred, eb, decorrelate,
                    want_codes, want_recon, want_bw);
    const auto want_bits = std::move(want_bw).finish();
    for (const unsigned lanes : detail::lorenzo_lane_widths()) {
      const std::string at = what + " lanes=" + std::to_string(lanes) +
                             (turbo ? " turbo" : " fast");
      std::vector<std::uint16_t> codes(n);
      std::vector<T> recon(n);
      BitWriter bw;
      const detail::PassCounters got = detail::lorenzo_compress_walk<T>(
          lanes, data, dims, quantizer, unpred, decorrelate, mode, codes,
          recon, bw, scratch);
      EXPECT_EQ(want_codes, codes) << at << ": codes";
      expect_bitwise_equal(want_recon, recon, at + ": reconstruction");
      EXPECT_EQ(want_bits, std::move(bw).finish())
          << at << ": unpredictable bits";
      EXPECT_EQ(want.predictable, got.predictable) << at;
      if (!turbo) {
        EXPECT_EQ(want.strict_hits, got.strict_hits) << at;
      }

      std::vector<T> out(n);
      BitReader br(want_bits);
      detail::lorenzo_decompress_walk<T>(lanes, want_codes, dims,
                                         dims.extents(), quantizer, unpred,
                                         decorrelate, out, br, scratch);
      expect_bitwise_equal(want_recon, out, at + ": decode");
    }
    if (!turbo) unpredictable = n - want.predictable;
  }
  return unpredictable;
}

std::vector<Dims> lane_shapes() {
  return {
      Dims{5, 37},      Dims{37, 5},     Dims{1, 19},     Dims{19, 1},
      Dims{1, 1},       Dims{9, 9},      Dims{3, 5, 23},  Dims{4, 23, 5},
      Dims{1, 7, 9},    Dims{3, 1, 17},  Dims{3, 17, 1},  Dims{1, 1, 1},
      Dims{2, 9, 9},    Dims{25, 32, 32}, Dims{25, 32, 29},
      // More than one 32-row band per plane, the last one partial.
      Dims{70, 9},      Dims{3, 70, 9},
  };
}

TEST(LaneWidths, BaselineAlwaysThenAvx2) {
  const auto widths = detail::lorenzo_lane_widths();
  ASSERT_FALSE(widths.empty());
  EXPECT_EQ(widths.front(), 2u);
  for (std::size_t k = 1; k < widths.size(); ++k)
    EXPECT_GT(widths[k], widths[k - 1]);
  const LinearQuantizer quantizer(8, 0.1);
  const UnpredictableCodecT<float> unpred(0.1);
  std::vector<float> data(6), recon(6);
  std::vector<std::uint16_t> codes(6);
  BitWriter bw;
  EXPECT_THROW((void)detail::lorenzo_compress_walk<float>(
                   3, data, Dims{2, 3}, quantizer, unpred, false,
                   HotPathMode::kFast, codes, recon, bw),
               std::invalid_argument);
}

/// Every shape class (R < C, R > C, R = 1, C = 1, P = 1, the archive's
/// 25x32x32 block and its 25x32x29 edge block) on the adversarial values,
/// whose NaN, Inf and denormal points take the raw escape, plus a
/// signaling NaN that must come back with its bits.
TEST(LaneWidths, EveryWidthMatchesTheScalarWalks) {
  for (const Dims& dims : lane_shapes())
    for (const bool dec : {false, true}) {
      auto values = adversarial_values(dims.count(), 500 + dims.count());
      if (values.size() > 20)
        values[19] = std::numeric_limits<float>::signaling_NaN();
      const std::string what =
          "dims=" + dims.to_string() + " decorrelate=" + std::to_string(dec);
      (void)expect_lanes_match<float>(values, dims, 1e-3, dec, what + " f32");
      const auto wide = to_dtype<double>(values);
      (void)expect_lanes_match<double>(wide, dims, 1e-3, dec, what + " f64");
    }
}

TEST(LaneWidths, MostlyUnpredictableBlock) {
  // White noise against a bound far below its spread: most points miss
  // every interval, so most lanes take the scalar fix-up.
  const Dims dims{6, 17, 13};
  Rng rng(91);
  std::vector<float> values(dims.count());
  for (float& v : values) v = static_cast<float>(rng.normal());
  const std::size_t unpredictable =
      expect_lanes_match<float>(values, dims, 1e-3, false, "noise");
  EXPECT_GE(4 * unpredictable, dims.count());
}

TEST(LaneWidths, TurboTiesFollowTheReciprocal) {
  // Along the turbo walk, each point is put within a few ulps of 1.5
  // intervals off its prediction, where the reciprocal multiply and the
  // exact divide can round apart; a point is kept where they do.  The
  // turbo lanes must follow the reciprocal there.
  const Dims dims{3, 9, 11};
  const double eb = 0.05;
  const LayerPredictor predictor(dims, 1);
  const LinearQuantizer quantizer(8, eb);
  const UnpredictableCodecT<double> unpred(eb);
  std::vector<double> values(dims.count()), recon(dims.count());
  std::size_t split = 0;
  CoordWalker walker(dims);
  for (std::size_t i = 0; i < values.size(); ++i, walker.advance()) {
    const double pred = predictor.predict<double>(recon, walker.coord(), i);
    const double tie = pred + (i % 2 == 0 ? 3 : -3) * eb;
    double x = tie;
    for (int k = 0; k < 32; ++k) x = std::nextafter(x, -1e9);
    for (int k = 0; k < 64; ++k, x = std::nextafter(x, 1e9)) {
      if (quantizer.quantize<double>(x, pred).code !=
          quantizer.quantize_turbo<double>(x, pred).code)
        break;
    }
    const bool found = quantizer.quantize<double>(x, pred).code !=
                       quantizer.quantize_turbo<double>(x, pred).code;
    values[i] = found ? x : tie;
    split += found ? 1 : 0;
    const auto q = quantizer.quantize_turbo<double>(values[i], pred);
    recon[i] = q.predictable ? q.reconstructed : unpred.reconstruct(values[i]);
  }
  EXPECT_GE(4 * split, dims.count());
  (void)expect_lanes_match<double>(values, dims, eb, false, "ties");
}

TEST(LaneWidths, TallThinFieldStagesOnlyDiagonals) {
  // A 100000 x 3 plane has 100002 diagonals of at most 3 points.  Rank 2
  // stages a ring of three diagonals, so the arena stays tiny; rank 3
  // stages two planes of compact diagonals, O(plane + R + C).
  CodecScratch scratch;
  const Dims tall{100000, 3};
  const auto values = adversarial_values(tall.count(), 7);
  (void)expect_lanes_match<float>(values, tall, 1e-3, false, "100000x3",
                                  &scratch);
  EXPECT_LE(scratch.local().diagonals().size(), 64u);

  const Dims deep{2, 20000, 3};
  const auto deep_values = adversarial_values(deep.count(), 8);
  (void)expect_lanes_match<float>(deep_values, deep, 1e-3, false,
                                  "2x20000x3", &scratch);
  const std::size_t R = 20000, C = 3, W = detail::lorenzo_lane_widths().back();
  EXPECT_LE(scratch.local().diagonals().size(),
            4 * R * C + 3 * (R + C + 1) * (W + 2));

  // A second walk of the same shape reuses the arena's staging.
  const double* staged = scratch.local().diagonals().data();
  (void)expect_lanes_match<float>(deep_values, deep, 1e-3, false,
                                  "2x20000x3 again", &scratch);
  EXPECT_EQ(staged, scratch.local().diagonals().data());
}

/// Every box of `dims`, as a list of LeadBoxes (entries past the rank 0).
std::vector<LeadBox> every_box(const Dims& dims) {
  std::vector<LeadBox> boxes;
  LeadBox b{};
  for (std::size_t a = 0; a < dims.rank(); ++a) b[a] = 1;
  for (;;) {
    boxes.push_back(b);
    std::size_t a = dims.rank();
    while (a > 0 && b[a - 1] == dims.extent(a - 1)) b[--a] = 1;
    if (a == 0) return boxes;
    ++b[a - 1];
  }
}

/// Box decode: for every box, decompress(stream, {}, box) keeps the full
/// decode's layout cut to the box's planes; values inside the box are
/// bit-identical to the full decode, and values outside it are zero
/// (ranks 2 and 3; ranks 1 and 4 decode the box's planes whole).
template <typename T>
void run_box_equivalence(const Dims& dims, EntropyBackend entropy,
                         unsigned layers, bool decorrelate) {
  const auto values =
      to_dtype<T>(adversarial_values(dims.count(), 77 + dims.rank()));
  Options opts;
  opts.eb_abs = 1e-3;
  opts.layers = layers;
  opts.decorrelate = decorrelate;
  opts.exec.entropy = entropy;
  const auto stream = compress(std::span<const T>(values), dims, opts);
  const std::string what =
      "dims=" + dims.to_string() + " layers=" + std::to_string(layers) +
      " decorrelate=" + std::to_string(decorrelate) +
      " rans=" + std::to_string(entropy == EntropyBackend::kRans);
  const auto full = decode_stream<T>(stream).data;
  ASSERT_EQ(full.size(), dims.count()) << what;
  const std::size_t rank = dims.rank();
  const bool whole_planes = rank == 1 || rank == 4;
  // The stream's codes and unpredictable bits, for the walk-level box
  // decodes at every lane width of the 1-layer kernel.
  const bool diagonal = layers == 1 && (rank == 2 || rank == 3);
  const LinearQuantizer quantizer(8, opts.eb_abs);
  const UnpredictableCodecT<T> unpred(opts.eb_abs);
  std::vector<std::uint16_t> codes(dims.count());
  std::vector<T> recon(dims.count());
  BitWriter bw;
  (void)detail::pq_compress_walk_generic<T>(
      values, dims, LayerPredictor(dims, layers), quantizer, unpred,
      opts.eb_abs, decorrelate, codes, recon, bw);
  const auto bits = std::move(bw).finish();
  std::array<std::size_t, kMaxDims> coord{};
  for (const LeadBox& box : every_box(dims)) {
    if (diagonal) {
      const std::size_t limit = detail::box_limit(dims, box);
      for (const unsigned lanes : detail::lorenzo_lane_widths()) {
        std::vector<T> out(dims.count());
        BitReader br(bits);
        detail::lorenzo_decompress_walk<T>(
            lanes, {codes.data(), limit}, dims, {box.data(), rank}, quantizer,
            unpred, decorrelate, out, br);
        std::size_t wrong = 0;
        for (std::size_t i = 0; i < out.size(); ++i) {
          dims.unravel(i, {coord.data(), rank});
          bool inside = true;
          for (std::size_t a = 0; a < rank; ++a) inside &= coord[a] < box[a];
          const T want = inside ? full[i] : T{0};
          wrong += std::memcmp(&want, &out[i], sizeof(T)) != 0 ? 1 : 0;
        }
        EXPECT_EQ(wrong, 0u) << what << " lanes=" << lanes;
      }
    }
    const auto got = decode_stream<T>(stream, box);
    ASSERT_TRUE(got.dims == dims.with_planes(box[0])) << what;
    ASSERT_EQ(got.data.size(), got.dims.count()) << what;
    std::size_t wrong = 0, first = 0;
    for (std::size_t i = 0; i < got.data.size(); ++i) {
      dims.unravel(i, {coord.data(), rank});
      bool inside = true;
      for (std::size_t a = 0; a < rank; ++a) inside &= coord[a] < box[a];
      const T want = inside || whole_planes ? full[i] : T{0};
      if (std::memcmp(&want, &got.data[i], sizeof(T)) != 0 && wrong++ == 0)
        first = i;
    }
    std::string name = what + " box=";
    for (std::size_t a = 0; a < rank; ++a) {
      if (a > 0) name += 'x';
      name += std::to_string(box[a]);
    }
    EXPECT_EQ(wrong, 0u) << name << " first wrong index " << first;
  }
  // A box reaching past the extents is the whole array.
  LeadBox past{};
  for (std::size_t a = 0; a < rank; ++a) past[a] = dims.extent(a) + 3;
  for (const LeadBox& box : {past, kWholeBox})
    expect_bitwise_equal(full, decode_stream<T>(stream, box).data,
                         what + " box past extents");

  // Damage is still caught with a box: every truncation, and a flipped
  // header extent (the entropy count no longer matches dims).
  const LeadBox corner = {1, 1, 1, 1};
  const std::size_t step = std::max<std::size_t>(1, stream.size() / 61);
  for (std::size_t len = 0; len < stream.size(); len += step) {
    const std::span<const std::uint8_t> cut(stream.data(), len);
    EXPECT_ANY_THROW((void)decode_stream<T>(cut)) << what << " len=" << len;
    EXPECT_ANY_THROW((void)decode_stream<T>(cut, corner))
        << what << " len=" << len;
  }
  // Header: magic(4) version dtype flags rank, then one varint byte per
  // extent (every test extent is < 128).
  constexpr std::size_t kFirstExtentByte = 8;
  for (std::size_t a = 0; a < rank; ++a) {
    auto flipped = stream;
    flipped[kFirstExtentByte + a] ^= 0x01;
    EXPECT_ANY_THROW((void)decode_stream<T>(flipped)) << what << " axis " << a;
    EXPECT_ANY_THROW((void)decode_stream<T>(flipped, corner))
        << what << " axis " << a;
  }
}

TEST(BoxDecode, EveryBoxMatchesFullDecode) {
  // {37, 5} and {2, 35, 4} span two 32-row bands of the 1-layer kernel.
  const Dims shapes[] = {Dims{97},     Dims{13, 17},    Dims{7, 9, 11},
                         Dims{4, 3, 5, 6}, Dims{37, 5}, Dims{2, 35, 4}};
  for (const Dims& d : shapes)
    for (const EntropyBackend entropy :
         {EntropyBackend::kHuffman, EntropyBackend::kRans})
      for (unsigned layers : {1u, 2u})
        for (bool dec : {false, true}) {
          run_box_equivalence<float>(d, entropy, layers, dec);
          run_box_equivalence<double>(d, entropy, layers, dec);
        }
}

TEST(BoxDecode, ReportsDecodedShapeAndRejectsEmptyBox) {
  const auto f = data::hurricane3d(8, 12, 12);
  Options opts;
  opts.eb_abs = 1e-3;
  const auto stream = compress(f.values, f.dims, opts);
  const auto r = decompress(stream, {}, {3, 5, 7});
  EXPECT_TRUE(r.dims == (Dims{3, 12, 12}));
  EXPECT_EQ(r.data.size(), r.dims.count());
  for (const LeadBox& empty :
       {LeadBox{0, 12, 12}, LeadBox{8, 0, 12}, LeadBox{8, 12, 0}})
    EXPECT_THROW((void)decompress(stream, {}, empty), std::invalid_argument);
  // Entries past the rank are ignored.
  EXPECT_NO_THROW((void)decompress(stream, {}, {8, 12, 12, 0}));
}

/// compress() grows its stream once the payload size is known, so the
/// returned vector holds no slack.
TEST(CompressOutput, OneExactAllocation) {
  const auto f = data::hurricane3d(25, 32, 32);
  for (const EntropyBackend entropy :
       {EntropyBackend::kHuffman, EntropyBackend::kRans}) {
    Options opts;
    opts.eb_rel = 1e-4;
    opts.exec.entropy = entropy;
    const auto stream = compress(f.values, f.dims, opts);
    EXPECT_EQ(stream.capacity(), stream.size())
        << "rans=" << (entropy == EntropyBackend::kRans);
  }
}

TEST(DecompressInto, MatchesDecompressAndValidatesSize) {
  const auto f = data::hurricane3d(8, 12, 12);
  Options opts;
  opts.eb_abs = 1e-3;
  const auto stream = compress(f.values, f.dims, opts);
  const auto ref = decompress(stream);

  std::vector<float> out(f.dims.count());
  const StreamInfo info = decompress_into(stream, out);
  EXPECT_TRUE(info.dims == f.dims);
  EXPECT_DOUBLE_EQ(info.eb_abs, ref.eb_abs);
  expect_bitwise_equal(ref.data, out, "decompress_into");

  std::vector<float> wrong(f.dims.count() - 1);
  EXPECT_THROW((void)decompress_into(stream, wrong), std::invalid_argument);
  std::vector<double> wrong_dtype(f.dims.count());
  EXPECT_THROW((void)decompress_into(stream, wrong_dtype),
               std::runtime_error);
}

}  // namespace
}  // namespace sz14
