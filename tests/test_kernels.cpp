// Equivalence proofs for the dimension-specialized fused kernels
// (core/kernels): under every supported configuration the wavefront walk
// must produce the same codes, bit-identical reconstructions and the same
// unpredictable bitstream as the seed's generic CoordWalker walk
// (detail::pq_compress_walk_generic, the oracle), and pq_decompress_walk
// must replay that reconstruction exactly.  Together with the golden
// streams in test_format.cpp this lets the hot path evolve without a
// format break.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "common/bitstream.hpp"
#include "common/rng.hpp"
#include "core/compressor.hpp"
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
  std::array<std::size_t, kMaxDims> coord{};
  for (const LeadBox& box : every_box(dims)) {
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
  const Dims shapes[] = {Dims{97}, Dims{13, 17}, Dims{7, 9, 11},
                         Dims{4, 3, 5, 6}};
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
