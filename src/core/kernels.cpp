#include "core/kernels.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

// The 4-lane (AVX2) instance of the anti-diagonal kernel is built with
// GCC's target pragma, on x86-64 only; elsewhere the baseline width runs.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define SZ14_DIAGONAL_AVX2 1
#include <immintrin.h>
#endif

#include "core/field_utils.hpp"

namespace sz14::detail {

namespace {

// In index order the prediction-quantization walk is one serial chain:
// each point's prediction reads the reconstruction of the points just
// before it (predict -> diff -> divide -> round -> reconstruct -> store).
// Two walks break it into independent chains while each point still sees
// exactly the inputs it sees in index order, so every value stays
// bit-identical:
//
//  - The 1-layer (Lorenzo) walk of a rank-2 or rank-3 array, by far the
//    common case (the paper's Table II picks one layer), runs along the
//    anti-diagonals r + c = d of each plane, in 32-row bands.  The points
//    of one diagonal do not depend on each other, so W of them run as the
//    lanes of one vector: 2 doubles in the baseline (SSE2) build, 4 with
//    AVX2, chosen once per process.  With the chain gone this walk is
//    instruction-bound: the scalar stage-in/stage-out loops around the
//    vector body cost about as much as the body.  See "anti-diagonal
//    kernel" below.
//  - The tap walk of 2 or more layers runs a WAVEFRONT over kWave interior
//    rows at a 1-column skew: row r+1 trails row r by one column, which
//    satisfies every stencil dependency (taps reach back <= layers rows,
//    and a row one step behind has already passed the needed column), so
//    kWave chains are in flight at once.  It stays latency-bound, as does
//    rank 1's single chain (walk1).
//
// Rank 4 runs the generic walk.
//
// Both reorder the points, so the two order-sensitive side channels are
// made order-independent first:
//  - compress: unpredictable points only *reconstruct* during the walk
//    (UnpredictableCodecT::reconstruct); the bitstream is emitted in index
//    order afterwards from the codes array, so bits match the seed layout.
//  - decompress: the unpredictable bitstream is pre-decoded in index order
//    into an array, and each row starts at its precomputed rank (count of
//    unpredictable points before the row), so rows pull their own values
//    independently.
inline constexpr std::size_t kWave = 6;

/// Per-row traversal state: cursor into the pre-decoded unpredictable
/// values (decompress fast path; unused elsewhere).
struct RowState {
  std::size_t cursor = 0;
};

// ---------------------------------------------------------------- bodies

/// Generic-walk compress body: inline unpredictable encoding into bw,
/// exactly the seed's original loop in compressor.cpp.
template <typename T>
struct CompressBodyGeneric {
  const T* data;
  std::uint16_t* codes;
  T* recon;
  const LinearQuantizer* quantizer;
  const UnpredictableCodecT<T>* unpred;
  BitWriter* bw;
  double eb;
  bool decorrelate;
  std::size_t predictable = 0;
  std::size_t strict_hits = 0;

  RowState begin_row(std::size_t) const { return {}; }

  template <typename PredFn>
  T point(std::size_t i, RowState&, PredFn&& pred_fn) {
    const double pred = pred_fn();
    if (std::fabs(pred - static_cast<double>(data[i])) <= eb) ++strict_hits;
    const double grid_pred = decorrelate ? pred + dither_for(i, eb) : pred;
    const QuantResultT<T> q = quantizer->quantize<T>(data[i], grid_pred);
    if (q.predictable) {
      codes[i] = q.code;
      recon[i] = q.reconstructed;
      ++predictable;
      return q.reconstructed;
    }
    codes[i] = 0;
    return recon[i] = unpred->encode(data[i], *bw);
  }

  [[nodiscard]] const T* basis() const noexcept { return recon; }
};

/// LinearQuantizer::quantize with the quantizer state hoisted into scalars
/// (two_eb == 2.0 * eb, radius_d == double(radius), radius_i ==
/// int32(radius)).  The arithmetic is operation-for-operation
/// LinearQuantizer::quantize, so results stay bit-identical (enforced by
/// tests/test_kernels.cpp).
template <typename T>
[[gnu::always_inline]] inline QuantResultT<T> quantize_hoisted(
    T real, double pred, double eb, double two_eb, double radius_d,
    std::int32_t radius_i) {
  // No eb/isfinite preamble (the fast walks only run with eb > 0, and a
  // non-finite `real` turns `scaled` into NaN/Inf, which the range check
  // below rejects — same decision as LinearQuantizer::quantize, two branches
  // cheaper per point).  All three accept/reject conditions fold into ONE
  // predicate so the loop carries a single well-predicted branch instead of
  // four data-dependent early exits; `in_range` zero-substitutes NaN/huge
  // offsets before the int cast (whose behaviour would otherwise be
  // undefined), and the unsigned compare is q in (-radius, radius) — both
  // endpoints excluded: radius would overflow the code byte, -radius would
  // collide with the unpredictable marker 0.
  const double diff = static_cast<double>(real) - pred;
  const double scaled = diff / two_eb;
  const bool in_range = std::fabs(scaled) < radius_d;
  const double safe = in_range ? scaled : 0.0;
  const std::int32_t q = LinearQuantizer::round_half_away(safe);
  const auto recon = static_cast<T>(pred + two_eb * q);
  const bool ok =
      in_range &
      (static_cast<std::uint32_t>(q + radius_i - 1) <
       static_cast<std::uint32_t>(2 * radius_i - 1)) &
      (std::fabs(static_cast<double>(recon) - static_cast<double>(real)) <=
       eb);
  if (ok) return {true, static_cast<std::uint16_t>(radius_i + q), recon};
  return {};
}

/// Wavefront-safe compress body: reconstructs unpredictable points without
/// touching the bitstream (emitted in index order after the walk).
/// The pointers are __restrict so input loads do not serialize against the
/// reconstruction stores (data/codes/recon never alias by contract).
template <typename T>
struct CompressBodyFast {
  const T* __restrict data;
  std::uint16_t* __restrict codes;
  T* __restrict recon;
  const UnpredictableCodecT<T>* unpred;
  double eb;
  double two_eb;
  double radius_d;
  std::int32_t radius_i;
  bool decorrelate;
  std::size_t predictable = 0;
  std::size_t strict_hits = 0;

  RowState begin_row(std::size_t) const { return {}; }

  template <typename PredFn>
  T point(std::size_t i, RowState&, PredFn&& pred_fn) {
    const double pred = pred_fn();
    // Counted branchlessly: the hit test flips often enough on real data
    // that a conditional increment mispredicts on the hot chain.
    strict_hits += static_cast<std::size_t>(
        std::fabs(pred - static_cast<double>(data[i])) <= eb);
    const double grid_pred = decorrelate ? pred + dither_for(i, eb) : pred;
    const QuantResultT<T> q = quantize_hoisted<T>(data[i], grid_pred, eb,
                                                  two_eb, radius_d, radius_i);
    if (q.predictable) {
      codes[i] = q.code;
      recon[i] = q.reconstructed;
      ++predictable;
      return q.reconstructed;
    }
    codes[i] = 0;
    return recon[i] = unpred->reconstruct(data[i]);
  }

  [[nodiscard]] const T* basis() const noexcept { return recon; }
};

/// Wavefront-safe decompress body: unpredictable values come from the
/// pre-decoded array, each row starting at its precomputed rank.  The
/// reconstruction (pred + 2*eb*q, see LinearQuantizer::reconstruct) is
/// inlined with hoisted scalars like quantize_hoisted above.
template <typename T>
struct DecompressBodyFast {
  const std::uint16_t* __restrict codes;
  T* __restrict out;
  double eb;
  double two_eb;
  std::int32_t radius_i;
  bool decorrelate;
  const T* __restrict unpred_vals;
  const std::size_t* __restrict row_rank;  // one entry per natural row

  RowState begin_row(std::size_t row) const { return {row_rank[row]}; }

  template <typename PredFn>
  T point(std::size_t i, RowState& st, PredFn&& pred_fn) {
    if (codes[i] == 0) return out[i] = unpred_vals[st.cursor++];
    const double pred = pred_fn();
    const double grid_pred = decorrelate ? pred + dither_for(i, eb) : pred;
    const std::int32_t q = static_cast<std::int32_t>(codes[i]) - radius_i;
    return out[i] = static_cast<T>(grid_pred + two_eb * q);
  }

  [[nodiscard]] const T* basis() const noexcept { return out; }
};

// --------------------------------------------------------------- walkers

/// Interior prediction: the LayerPredictor tap loop without the per-point
/// containment check.  Same accumulation order as LayerPredictor::predict,
/// so results are bit-identical.
template <typename T>
inline double tap_predict(const T* v, std::size_t i,
                          const PredictorTap* taps, std::size_t ntaps) {
  double acc = 0.0;
  for (std::size_t t = 0; t < ntaps; ++t)
    acc += taps[t].coeff * static_cast<double>(v[i - taps[t].linear_back]);
  return acc;
}

/// Generic walk (pq_compress_walk_generic and the rank-4 fallback): the
/// original CoordWalker loop, one containment-checked predict per point,
/// strict index order.
template <typename T, typename Body>
void walk_generic(const Dims& dims, const LayerPredictor& predictor,
                  Body& body) {
  const std::size_t n = dims.count();
  RowState st = body.begin_row(0);
  CoordWalker walker(dims);
  for (std::size_t i = 0; i < n; ++i) {
    body.point(i, st, [&] {
      return predictor.predict<T>({body.basis(), n}, walker.coord(), i);
    });
    walker.advance();
  }
}

template <typename T, typename Body>
inline void border_point(Body& body, const LayerPredictor& predictor,
                         std::size_t n, std::span<const std::size_t> coord,
                         std::size_t i, RowState& st) {
  body.point(i, st, [&] {
    return predictor.predict<T>({body.basis(), n}, coord, i);
  });
}

template <typename T, typename Body>
void walk1(const Dims& dims, const LayerPredictor& predictor, Body& body) {
  // One row = one serial chain; nothing to wavefront.
  const std::size_t n = dims.count();
  const std::size_t L = predictor.layers();
  const auto taps = predictor.taps();
  RowState st = body.begin_row(0);
  std::array<std::size_t, kMaxDims> coord{};
  const std::size_t nb = std::min(L, n);
  for (std::size_t i = 0; i < nb; ++i) {
    coord[0] = i;
    border_point<T>(body, predictor, n, {coord.data(), 1}, i, st);
  }
  const T* v = body.basis();
  if (L == 1) {
    // One serial chain; carrying the previous reconstruction in a register
    // removes the store-to-load forward (and its conversion) from it.
    if (nb < n) {
      T prev = v[nb - 1];
      for (std::size_t i = nb; i < n; ++i)
        prev = body.point(i, st, [&] { return static_cast<double>(prev); });
    }
  } else {
    for (std::size_t i = nb; i < n; ++i)
      body.point(i, st,
                 [&] { return tap_predict(v, i, taps.data(), taps.size()); });
  }
}

/// One point of an interior row (r >= layers on every slower axis):
/// border columns take the checked path, interior columns the tap loop.
/// `row_base` is the linear index of (row, 0); `prefix` holds the slower
/// coordinates for border points.
template <typename T, typename Body>
inline void row_point(Body& body, const LayerPredictor& predictor,
                      std::size_t n, const T* v, std::size_t row_base,
                      std::size_t c, std::size_t L, std::size_t rank,
                      std::span<const std::size_t> prefix,
                      const PredictorTap* taps, std::size_t ntaps,
                      RowState& st) {
  const std::size_t i = row_base + c;
  if (c < L) {
    std::array<std::size_t, kMaxDims> coord{};
    for (std::size_t a = 0; a + 1 < rank; ++a) coord[a] = prefix[a];
    coord[rank - 1] = c;
    border_point<T>(body, predictor, n, {coord.data(), rank}, i, st);
    return;
  }
  body.point(i, st, [&] { return tap_predict(v, i, taps, ntaps); });
}

/// Wavefront over `g` consecutive interior rows (g >= 1), 1-column skew:
/// at step s, row j processes column s - j.  Row j-1 finished column c at
/// step s-1 < s, so every tap of row j's column c (reaching rows above at
/// columns <= c) is complete — for any layer count.
template <typename T, typename Body>
#if defined(__GNUC__)
__attribute__((noinline))  // keep the hot loop a standalone function: the
                           // register allocator does markedly better here
                           // than inside the fully-inlined walk dispatch
#endif
[[nodiscard]] Body
wavefront_rows(Body body,  // by value: counters and
               // cursors registerize; merged on return
               const LayerPredictor& predictor, std::size_t n, std::size_t C,
               std::size_t L, std::size_t rank,
               std::size_t row0,        // natural-row id of the first row
               std::size_t base0,       // linear index of (row0, 0)
               std::size_t row_stride,  // linear stride between rows
               std::size_t g,
               std::span<const std::size_t> plane_prefix,  // 3D: {p}
               std::size_t r_first,  // axis coordinate of first row
               const PredictorTap* taps, std::size_t ntaps) {
  const T* v = body.basis();
  std::array<RowState, kWave> st;
  std::array<std::array<std::size_t, kMaxDims>, kWave> prefix{};
  for (std::size_t j = 0; j < g; ++j) {
    st[j] = body.begin_row(row0 + j);
    for (std::size_t a = 0; a + 1 < rank - 1; ++a)
      prefix[j][a] = plane_prefix[a];
    prefix[j][rank - 2] = r_first + j;
  }
  const auto general_step = [&](std::size_t s) {
    const std::size_t jlo = s >= C ? s - C + 1 : 0;
    const std::size_t jhi = g < s + 1 ? g : s + 1;
    for (std::size_t j = jlo; j < jhi; ++j) {
      row_point<T>(body, predictor, n, v, base0 + j * row_stride, s - j, L,
                   rank, {prefix[j].data(), rank - 1}, taps, ntaps, st[j]);
    }
  };

  // Steady state: from step L+g-1 on, every in-flight row sits at an
  // interior column, so the border machinery drops out of the hot loop
  // entirely.  The j bound stays a runtime value on purpose — a constexpr
  // bound makes the compiler unroll g long FP chains and spill.
  const std::size_t steady_lo = L + g - 1;
  if (steady_lo >= C) {
    for (std::size_t s = 0; s < C + g - 1; ++s) general_step(s);
    return body;
  }
  for (std::size_t s = 0; s < steady_lo; ++s) general_step(s);
  for (std::size_t s = steady_lo; s < C; ++s) {
    for (std::size_t j = 0; j < g; ++j) {
      const std::size_t i = base0 + j * row_stride + (s - j);
      body.point(i, st[j], [&] { return tap_predict(v, i, taps, ntaps); });
    }
  }
  for (std::size_t s = C; s < C + g - 1; ++s) general_step(s);
  return body;
}

/// The 2D and 3D tap walks cover the leading box `box` (box[a] <=
/// extent(a)) of `dims`: loops run over the box's extents, while strides,
/// linear indices and natural row ids (begin_row) stay the whole array's,
/// so a box point sees exactly the inputs it sees in a whole-array walk.
template <typename T, typename Body>
void walk2(const Dims& dims, std::span<const std::size_t> box,
           const LayerPredictor& predictor, Body& body) {
  const std::size_t R = box[0], C = box[1];
  const std::size_t n = dims.count();
  const std::size_t L = predictor.layers();
  const std::size_t s0 = dims.stride(0);
  const auto taps = predictor.taps();
  std::array<std::size_t, kMaxDims> coord{};
  // Border rows (r < L): strict left-to-right.
  const std::size_t rb = std::min(L, R);
  for (std::size_t r = 0; r < rb; ++r) {
    RowState st = body.begin_row(r);
    coord[0] = r;
    for (std::size_t c = 0; c < C; ++c) {
      coord[1] = c;
      border_point<T>(body, predictor, n, {coord.data(), 2}, r * s0 + c, st);
    }
  }
  // Interior rows in wavefront groups.
  for (std::size_t r = rb; r < R;) {
    const std::size_t g = std::min(kWave, R - r);
    body = wavefront_rows<T>(body, predictor, n, C, L, /*rank=*/2,
                             /*row0=*/r, /*base0=*/r * s0,
                             /*row_stride=*/s0, g, /*plane_prefix=*/{},
                             /*r_first=*/r, taps.data(), taps.size());
    r += g;
  }
}

template <typename T, typename Body>
void walk3(const Dims& dims, std::span<const std::size_t> box,
           const LayerPredictor& predictor, Body& body) {
  const std::size_t P = box[0], R = box[1], C = box[2];
  const std::size_t rows = dims.extent(1);  // natural rows per plane
  const std::size_t n = dims.count();
  const std::size_t L = predictor.layers();
  const std::size_t s0 = dims.stride(0), s1 = dims.stride(1);
  const auto taps = predictor.taps();
  std::array<std::size_t, kMaxDims> coord{};
  for (std::size_t p = 0; p < P; ++p) {
    coord[0] = p;
    // Border rows of this plane (whole plane when p < L): strict order.
    const std::size_t rb = (p < L) ? R : std::min(L, R);
    for (std::size_t r = 0; r < rb; ++r) {
      RowState st = body.begin_row(p * rows + r);
      coord[1] = r;
      for (std::size_t c = 0; c < C; ++c) {
        coord[2] = c;
        border_point<T>(body, predictor, n, {coord.data(), 3},
                        p * s0 + r * s1 + c, st);
      }
    }
    // Interior rows of this plane in wavefront groups (previous planes are
    // complete, so only in-plane row dependencies constrain the skew).
    const std::size_t plane_prefix[1] = {p};
    for (std::size_t r = rb; r < R;) {
      const std::size_t g = std::min(kWave, R - r);
      body = wavefront_rows<T>(body, predictor, n, C, L, /*rank=*/3,
                               /*row0=*/p * rows + r,
                               /*base0=*/p * s0 + r * s1,
                               /*row_stride=*/s1, g,
                               std::span<const std::size_t>(plane_prefix, 1),
                               /*r_first=*/r, taps.data(), taps.size());
      r += g;
    }
  }
}

/// Walk the leading box `box` of `dims`.  Ranks 1 and 4 walk all of
/// `dims`: a rank-1 box is its plane prefix, and the rank-4 generic walk
/// runs whole planes.
template <typename T, typename Body>
void walk_fast(const Dims& dims, std::span<const std::size_t> box,
               const LayerPredictor& predictor, Body& body) {
  switch (dims.rank()) {
    case 1:
      walk1<T>(dims, predictor, body);
      break;
    case 2:
      walk2<T>(dims, box, predictor, body);
      break;
    case 3:
      walk3<T>(dims, box, predictor, body);
      break;
    default:
      walk_generic<T>(dims, predictor, body);
      break;
  }
}

// ------------------------------------------------ anti-diagonal kernel
//
// The 1-layer walk of a P x R x C box (P = 1 for rank 2), one plane after
// another and, within a band of a plane's rows (DiagBox), one
// anti-diagonal d = r + c after another.
// The Lorenzo taps of (p, r, c) are (r, c-1) and (r-1, c) on diagonal
// d - 1, (r-1, c-1) on d - 2, and the same three plus (r, c) itself on the
// previous plane, so the points of one diagonal are independent and run W
// at a time as vector lanes.
//
// Each diagonal is staged as doubles in a slot (DiagBox): slot[1 + j]
// holds row lo(d) + j, and slot[0] and slot[1 + len(d)] hold zeros.  Every
// tap of row r is then the slot entry of row r or r - 1 on its diagonal,
// or one of these zeros, so a vector of W consecutive rows loads each tap
// as one contiguous vector, border or interior alike.  The zeros give
// exactly what predict_border gives by skipping the out-of-domain taps:
// the sum adds the in-domain taps in the same order, and adding or
// subtracting +0.0 changes no partial sum other than -0.0.  A partial sum
// is -0.0 only if its first tap is (x + y or x - y is -0.0 only when x
// is), and no reconstruction is -0.0 when eb > 0.  (A crafted stream can
// store a raw -0.0; the sign of a zero prediction still never reaches an
// output, because pred + 2 eb q adds +0.0 or a nonzero term.)
//
// Each lane runs the scalar body's arithmetic step for step: the same add
// order, the exact divide, round-half-away, the same accept predicate and
// the cast of the reconstruction to T.  No multiply-add is fused: the baseline
// build has none, and the AVX2 instance is compiled without FMA.  A lane
// that misses is fixed up in scalar code (UnpredictableCodecT::
// reconstruct).  Lanes past a diagonal's end compute on stale entries and
// are never stored to an output; the zero above the diagonal, which they
// may overwrite, is restored after it.

/// The box a diagonal walk covers and where it stages each diagonal.
/// Each plane is walked in bands of at most kBandRows rows, so a
/// diagonal's gather from and scatter to the natural arrays touches few
/// rows (pages) however large the plane.  Within a band, slot[0] of
/// diagonal d holds the point of the row above the band at column d + 1
/// (zero above the first band or past the last column), which is exactly
/// the tap a band's first row takes from there.  Slots hold 2 +
/// round_up(min(band rows, C), W) doubles, so a band of band_rows + C + 1
/// slots (the diagonals -2 .. band_rows + C - 2; the two before 0 are
/// empty) takes at most about twice the band.  Rank 3 stages every band
/// of the current and the previous plane; rank 2 needs only diagonals
/// d - 2 .. d, in a ring of three slots.
struct DiagBox {
  static constexpr std::size_t kBandRows = 32;
  std::size_t P = 1, R = 1, C = 1;
  std::size_t plane_stride = 0, row_stride = 0;  // natural strides
  std::size_t rows_per_plane = 0;                // natural rows per plane
  bool rank3 = false;
  std::size_t band_rows = 0, bands = 0, band_slots = 0, slot_size = 0;

  DiagBox(const Dims& dims, std::span<const std::size_t> box, int lanes)
      : rank3(dims.rank() == 3) {
    const std::size_t a = rank3 ? 1 : 0;  // the row axis
    if (rank3) {
      P = box[0];
      plane_stride = dims.stride(0);
    }
    R = box[a];
    C = box[a + 1];
    row_stride = dims.stride(a);
    rows_per_plane = dims.extent(a);
    band_rows = std::min(R, kBandRows);
    bands = (R + band_rows - 1) / band_rows;
    band_slots = rank3 ? band_rows + C + 1 : 3;
    const auto w = static_cast<std::size_t>(lanes);
    slot_size = 2 + (std::min(band_rows, C) + w - 1) / w * w;
  }

  /// First row of diagonal d, and its length in a band of `rows` rows (0
  /// for d < 0).
  [[nodiscard]] std::size_t lo(std::ptrdiff_t d) const {
    const auto e = static_cast<std::size_t>(std::max<std::ptrdiff_t>(d, 0));
    return e < C ? 0 : e - C + 1;
  }
  [[nodiscard]] std::size_t len(std::ptrdiff_t d, std::size_t rows) const {
    if (d < 0) return 0;
    const auto e = static_cast<std::size_t>(d);
    return std::min(e, rows - 1) - lo(d) + 1;
  }
  /// Offset of diagonal d of `band` within its plane's staging.
  [[nodiscard]] std::size_t slot(std::size_t band, std::ptrdiff_t d) const {
    const std::size_t first = rank3 ? band * band_slots : 0;
    return (first + static_cast<std::size_t>(d + 2) % band_slots) * slot_size;
  }
  [[nodiscard]] std::size_t plane_doubles() const {
    return (rank3 ? bands : 1) * band_slots * slot_size;
  }
  /// Staging for the planes plus `inputs` per-diagonal arrays.
  [[nodiscard]] std::size_t staging_doubles(std::size_t inputs) const {
    return (rank3 ? 2 : 1) * plane_doubles() + inputs * slot_size;
  }
  /// Natural index of the first point of diagonal d in the band starting
  /// at `row0` of plane p; the next point is row_stride - 1 further.
  [[nodiscard]] std::size_t first_index(std::size_t p, std::size_t row0,
                                        std::ptrdiff_t d) const {
    const std::size_t l = lo(d);
    return p * plane_stride + (row0 + l) * row_stride +
           static_cast<std::size_t>(d) - l;
  }
  /// Start a band: the two empty diagonals before d = 0 hold the row
  /// above at columns -1 (always zero) and 0.
  template <typename T>
  void open_band(double* plane, std::size_t band, const T* above) const {
    double* const m2 = plane + slot(band, -2);
    double* const m1 = plane + slot(band, -1);
    m2[0] = m2[1] = m1[1] = 0.0;
    m1[0] = above ? static_cast<double>(above[0]) : 0.0;
  }
  /// The value diagonal d's slot[0] holds: the row above at column d + 1.
  template <typename T>
  [[nodiscard]] double above_of(const T* above, std::ptrdiff_t d) const {
    const auto c = static_cast<std::size_t>(d + 1);
    return above && c < C ? static_cast<double>(above[c]) : 0.0;
  }
};

template <typename T>
struct EncodeJob {
  const T* data;
  std::uint16_t* codes;
  T* recon;
  const UnpredictableCodecT<T>* unpred;
  double eb, two_eb, radius;
  bool decorrelate;
  DiagBox box;
  double* staging;  // box.staging_doubles(3), zero-filled
};

template <typename T>
struct DecodeJob {
  const std::uint16_t* codes;
  T* out;
  const T* unpred_vals;
  std::size_t* row_cursor;  // per natural row: next unpredictable value
  double eb, two_eb;
  std::int32_t radius;
  bool decorrelate;
  DiagBox box;
  double* staging;  // box.staging_doubles(3), zero-filled
};

// The W = 4 helpers below take and return 32-byte vectors.  They are all
// inlined into the AVX2 kernel, so the compiler's note that such a
// function's ABI differs without AVX does not apply.  The note is issued
// where the templates are instantiated, at the end of this file, so it
// stays off from here on.
#pragma GCC diagnostic ignored "-Wpsabi"

/// The vector types of one lane width, and the conversions whose lowering
/// needs the width spelled out.
template <int W>
struct Lanes;

template <>
struct Lanes<2> {
  typedef double D __attribute__((vector_size(16)));
  typedef std::int64_t M __attribute__((vector_size(16)));
  typedef std::int32_t I __attribute__((vector_size(8)));
  typedef float F __attribute__((vector_size(8)));
  /// (double)(int32)x per lane; |x| < 2^31.
  static D trunc(D x) {
    return __builtin_convertvector(__builtin_convertvector(x, I), D);
  }
  /// (double)(float)x per lane.
  static D round_to_float(D x) {
    return __builtin_convertvector(__builtin_convertvector(x, F), D);
  }
  /// Bit l set iff lane l of m is set.
  static unsigned bits(M m) {
    return static_cast<unsigned>(m[0] != 0) |
           static_cast<unsigned>(m[1] != 0) << 1;
  }
};

template <class V, class E>
[[gnu::always_inline]] inline V load(const E* p) {
  V v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

template <class V>
[[gnu::always_inline]] inline void store(double* p, const V& v) {
  std::memcpy(p, &v, sizeof v);
}

/// Lanes 0 .. n-1 of the mask at kLive + 4 - n are set (1 <= n <= 4).
inline constexpr std::int64_t kLive[] = {-1, -1, -1, -1, 0, 0, 0, 0};

/// The pointers a diagonal's vectors read: the diagonal's own slot (out),
/// taps on d - 1 at rows r and r - 1 (a[1 + j], a[j]), on d - 2 at row
/// r - 1 (c[j]), and the same on the previous plane (pd, pa, pc).
struct DiagTaps {
  double* out;
  const double *a, *c, *pd, *pa, *pc;

  DiagTaps(const DiagBox& b, double* cur, const double* prev,
           std::size_t band, std::ptrdiff_t d) {
    const std::size_t lo = b.lo(d);
    const std::size_t d1 = lo - b.lo(d - 1), d2 = lo - b.lo(d - 2);
    out = cur + b.slot(band, d) + 1;
    a = cur + b.slot(band, d - 1) + d1;
    c = cur + b.slot(band, d - 2) + d2;
    pd = prev + b.slot(band, d) + 1;
    pa = prev + b.slot(band, d - 1) + d1;
    pc = prev + b.slot(band, d - 2) + d2;
  }

  /// The Lorenzo prediction of rows lo + j .. lo + j + W - 1, taps added
  /// in LayerPredictor's enumeration order: (0,1) (1,0) -(1,1) in a
  /// plane, then (1,0,0) -(1,0,1) -(1,1,0) (1,1,1) for rank 3.
  template <class D, bool kRank3>
  [[gnu::always_inline]] D predict(std::size_t j) const {
    D pred = load<D>(a + 1 + j) + load<D>(a + j) - load<D>(c + j);
    if constexpr (kRank3)
      pred = pred + load<D>(pd + j) - load<D>(pa + 1 + j) - load<D>(pa + j) +
             load<D>(pc + j);
    return pred;
  }
};

template <int W, typename T, bool kRank3>
[[gnu::always_inline]] inline PassCounters encode_walk(
    const EncodeJob<T>& job) {
  using L = Lanes<W>;
  using D = typename L::D;
  using M = typename L::M;
  const DiagBox& b = job.box;
  const D eb = D{} + job.eb, two_eb = D{} + job.two_eb,
          radius = D{} + job.radius, half = D{} + 0.5, one = D{} + 1.0;
  const M magnitude = M{} + std::numeric_limits<std::int64_t>::max();
  double* const plane0 = job.staging;
  double* const plane1 = kRank3 ? plane0 + b.plane_doubles() : plane0;
  double* const xs = plane1 + b.plane_doubles();  // staged data
  double* const ds = xs + b.slot_size;            // staged dither
  double* const cs = ds + b.slot_size;            // codes out
  const std::size_t step = b.row_stride - 1;
  M hits{};
  std::size_t unpredictable = 0;
  for (std::size_t p = 0; p < b.P; ++p) {
    double* const cur = p % 2 == 0 ? plane0 : plane1;
    const double* const prev = p % 2 == 0 ? plane1 : plane0;
    for (std::size_t band = 0; band < b.bands; ++band) {
      const std::size_t row0 = band * b.band_rows;
      const std::size_t rows = std::min(b.band_rows, b.R - row0);
      const T* const above =
          row0 == 0
              ? nullptr
              : job.recon + p * b.plane_stride + (row0 - 1) * b.row_stride;
      b.open_band(cur, band, above);
      const auto last = static_cast<std::ptrdiff_t>(rows + b.C - 1);
      for (std::ptrdiff_t d = 0; d < last; ++d) {
        const std::size_t len = b.len(d, rows);
        const std::size_t i0 = b.first_index(p, row0, d);
        for (std::size_t j = 0, i = i0; j < len; ++j, i += step) {
          xs[j] = static_cast<double>(job.data[i]);
          if (job.decorrelate) ds[j] = dither_for(i, job.eb);
        }
        const DiagTaps taps(b, cur, prev, band, d);
        taps.out[-1] = b.above_of(above, d);
        for (std::size_t j = 0; j < len; j += W) {
          const M live = load<M>(kLive + 4 - std::min<std::size_t>(len - j, W));
          const D pred = taps.template predict<D, kRank3>(j);
          const D x = load<D>(xs + j);
          hits -= ((D)((M)(pred - x) & magnitude) <= eb) & live;
          const D grid = job.decorrelate ? pred + load<D>(ds + j) : pred;
          const D diff = x - grid;
          const D scaled = diff / two_eb;
          const M in_range = (D)((M)scaled & magnitude) < radius;
          const D safe = (D)((M)scaled & in_range);
          const D t = L::trunc(safe);
          const D frac = safe - t;
          const D q = t + (D)((frac >= half) & (M)one) -
                      (D)((frac <= -half) & (M)one);
          D rec = grid + two_eb * q;
          if constexpr (std::is_same_v<T, float>) rec = L::round_to_float(rec);
          const M ok = in_range & ((D)((M)q & magnitude) < radius) &
                       ((D)((M)(rec - x) & magnitude) <= eb);
          store(taps.out + j, rec);
          store(cs + j, (D)((M)(q + radius) & ok));
          if (const unsigned bad = L::bits(~ok & live)) [[unlikely]] {
            for (std::size_t l = 0; l < W; ++l) {
              if ((bad >> l & 1u) == 0) continue;
              taps.out[j + l] = static_cast<double>(
                  job.unpred->reconstruct(job.data[i0 + (j + l) * step]));
              ++unpredictable;
            }
          }
        }
        taps.out[len] = 0.0;
        for (std::size_t j = 0, i = i0; j < len; ++j, i += step) {
          job.codes[i] = static_cast<std::uint16_t>(cs[j]);
          job.recon[i] = static_cast<T>(taps.out[j]);
        }
      }
    }
  }
  std::size_t strict_hits = 0;
  for (int l = 0; l < W; ++l) strict_hits += static_cast<std::size_t>(hits[l]);
  return {b.P * b.R * b.C - unpredictable, strict_hits};
}

template <int W, typename T, bool kRank3>
[[gnu::always_inline]] inline void decode_walk(const DecodeJob<T>& job) {
  using L = Lanes<W>;
  using D = typename L::D;
  using M = typename L::M;
  const DiagBox& b = job.box;
  double* const plane0 = job.staging;
  double* const plane1 = kRank3 ? plane0 + b.plane_doubles() : plane0;
  double* const qs = plane1 + b.plane_doubles();  // 2 eb q, NaN: unpredictable
  double* const us = qs + b.slot_size;            // unpredictable values
  double* const ds = us + b.slot_size;            // staged dither
  const std::size_t step = b.row_stride - 1;
  for (std::size_t p = 0; p < b.P; ++p) {
    double* const cur = p % 2 == 0 ? plane0 : plane1;
    const double* const prev = p % 2 == 0 ? plane1 : plane0;
    for (std::size_t band = 0; band < b.bands; ++band) {
      const std::size_t row0 = band * b.band_rows;
      const std::size_t rows = std::min(b.band_rows, b.R - row0);
      const T* const above =
          row0 == 0 ? nullptr
                    : job.out + p * b.plane_stride + (row0 - 1) * b.row_stride;
      std::size_t* const cursor =
          job.row_cursor + p * b.rows_per_plane + row0;
      b.open_band(cur, band, above);
      const auto last = static_cast<std::ptrdiff_t>(rows + b.C - 1);
      for (std::ptrdiff_t d = 0; d < last; ++d) {
        const std::size_t lo = b.lo(d), len = b.len(d, rows);
        const std::size_t i0 = b.first_index(p, row0, d);
        for (std::size_t j = 0, i = i0; j < len; ++j, i += step) {
          const std::uint16_t code = job.codes[i];
          if (code == 0) {
            const T v = job.unpred_vals[cursor[lo + j]++];
            job.out[i] = v;
            us[j] = static_cast<double>(v);
            qs[j] = std::numeric_limits<double>::quiet_NaN();
          } else {
            const std::int32_t q = static_cast<std::int32_t>(code) - job.radius;
            qs[j] = job.two_eb * static_cast<double>(q);
          }
          if (job.decorrelate) ds[j] = dither_for(i, job.eb);
        }
        const DiagTaps taps(b, cur, prev, band, d);
        taps.out[-1] = b.above_of(above, d);
        for (std::size_t j = 0; j < len; j += W) {
          const D pred = taps.template predict<D, kRank3>(j);
          const D grid = job.decorrelate ? pred + load<D>(ds + j) : pred;
          const D q = load<D>(qs + j);
          D rec = grid + q;
          if constexpr (std::is_same_v<T, float>) rec = L::round_to_float(rec);
          const M unpredictable = q != q;
          store(taps.out + j, (D)(((M)rec & ~unpredictable) |
                                  ((M)load<D>(us + j) & unpredictable)));
        }
        taps.out[len] = 0.0;
        for (std::size_t j = 0, i = i0; j < len; ++j, i += step)
          if (job.codes[i] != 0) job.out[i] = static_cast<T>(taps.out[j]);
      }
    }
  }
}

/// One instance per lane width and dtype; the rank is a compile-time
/// branch inside.
template <int W, typename T>
PassCounters encode_diagonals(const EncodeJob<T>& job) {
  if (job.box.rank3) return encode_walk<W, T, true>(job);
  return encode_walk<W, T, false>(job);
}

template <int W, typename T>
void decode_diagonals(const DecodeJob<T>& job) {
  if (job.box.rank3)
    decode_walk<W, T, true>(job);
  else
    decode_walk<W, T, false>(job);
}

#if defined(SZ14_DIAGONAL_AVX2)
// The 4-lane instance: the same template, instantiated with AVX2 enabled
// and FMA not (so no multiply-add is fused).  Only these functions carry
// the target; lorenzo_lane_widths() offers them only on a CPU with AVX2.
#pragma GCC push_options
#pragma GCC target("avx2")
template <>
struct Lanes<4> {
  typedef double D __attribute__((vector_size(32)));
  typedef std::int64_t M __attribute__((vector_size(32)));
  static D trunc(D x) {
    return (D)_mm256_cvtepi32_pd(_mm256_cvttpd_epi32((__m256d)x));
  }
  static D round_to_float(D x) {
    return (D)_mm256_cvtps_pd(_mm256_cvtpd_ps((__m256d)x));
  }
  static unsigned bits(M m) {
    return static_cast<unsigned>(_mm256_movemask_pd((__m256d)m));
  }
};
template PassCounters encode_diagonals<4, float>(const EncodeJob<float>&);
template PassCounters encode_diagonals<4, double>(const EncodeJob<double>&);
template void decode_diagonals<4, float>(const DecodeJob<float>&);
template void decode_diagonals<4, double>(const DecodeJob<double>&);
#pragma GCC pop_options
#endif

bool cpu_runs_avx2() {
#if defined(SZ14_DIAGONAL_AVX2)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

int checked_lanes(unsigned lanes) {
  for (const unsigned w : lorenzo_lane_widths())
    if (w == lanes) return static_cast<int>(lanes);
  throw std::invalid_argument("sz14: lane width " + std::to_string(lanes) +
                              " is not available");
}

/// Emit the unpredictable bitstream in index order (the walks visit points
/// out of order; bits must not), storing each point's exact reconstruction.
template <typename T>
void emit_unpredictable(std::span<const T> data,
                        std::span<const std::uint16_t> codes,
                        std::span<T> recon,
                        const UnpredictableCodecT<T>& unpred, BitWriter& bw) {
  for (std::size_t i = 0; i < data.size(); ++i)
    if (codes[i] == 0) recon[i] = unpred.encode(data[i], bw);
}

/// The unpredictable values up to codes.size(), decoded in index order,
/// and each natural row's rank among them.  The codes end at the box's
/// last point, which may cut its row short.
template <typename T>
struct Predecoded {
  std::vector<std::size_t> row_rank;
  std::vector<T> vals;

  Predecoded(std::span<const std::uint16_t> codes, const Dims& dims,
             const UnpredictableCodecT<T>& unpred, BitReader& br) {
    const std::size_t n = codes.size();
    const std::size_t rank = dims.rank();
    const std::size_t rowlen =
        (rank == 2 || rank == 3) ? dims.extent(rank - 1) : n;
    const std::size_t nrows = (n + rowlen - 1) / rowlen;
    row_rank.assign(nrows, 0);
    std::size_t i = 0;
    for (std::size_t row = 0; row < nrows; ++row) {
      row_rank[row] = vals.size();
      for (const std::size_t end = std::min(i + rowlen, n); i < end; ++i)
        if (codes[i] == 0) vals.push_back(unpred.decode(br));
    }
  }
};

bool takes_diagonal_walk(const Dims& dims, const LayerPredictor& predictor) {
  return predictor.layers() == 1 && (dims.rank() == 2 || dims.rank() == 3);
}

}  // namespace

std::span<const unsigned> lorenzo_lane_widths() {
  static constexpr unsigned kWidths[] = {2, 4};
  static const std::size_t count = cpu_runs_avx2() ? 2 : 1;
  return {kWidths, count};
}

std::size_t lorenzo_staging_doubles(unsigned lanes, const Dims& dims,
                                    std::span<const std::size_t> box) {
  return DiagBox(dims, box, checked_lanes(lanes)).staging_doubles(3);
}

template <typename T>
PassCounters lorenzo_compress_walk(unsigned lanes, std::span<const T> data,
                                   const Dims& dims,
                                   const LinearQuantizer& quantizer,
                                   const UnpredictableCodecT<T>& unpred,
                                   bool decorrelate,
                                   std::span<std::uint16_t> codes,
                                   std::span<T> recon, BitWriter& bw) {
  const int w = checked_lanes(lanes);
  const DiagBox box(dims, dims.extents(), w);
  std::vector<double> staging(
      lorenzo_staging_doubles(lanes, dims, dims.extents()));
  const EncodeJob<T> job{
      data.data(),
      codes.data(),
      recon.data(),
      &unpred,
      quantizer.error_bound(),
      2.0 * quantizer.error_bound(),
      static_cast<double>(quantizer.alphabet_size() / 2),
      decorrelate,
      box,
      staging.data()};
#if defined(SZ14_DIAGONAL_AVX2)
  const PassCounters counters =
      w == 4 ? encode_diagonals<4>(job) : encode_diagonals<2>(job);
#else
  const PassCounters counters = encode_diagonals<2>(job);
#endif
  if (counters.predictable != data.size())
    emit_unpredictable(data, codes, recon, unpred, bw);
  return counters;
}

template <typename T>
void lorenzo_decompress_walk(unsigned lanes,
                             std::span<const std::uint16_t> codes,
                             const Dims& dims, std::span<const std::size_t> box,
                             const LinearQuantizer& quantizer,
                             const UnpredictableCodecT<T>& unpred,
                             bool decorrelate, std::span<T> out,
                             BitReader& br) {
  const int w = checked_lanes(lanes);
  Predecoded<T> pre(codes, dims, unpred, br);
  const DiagBox diag(dims, box, w);
  std::vector<double> staging(lorenzo_staging_doubles(lanes, dims, box));
  const DecodeJob<T> job{
      codes.data(),
      out.data(),
      pre.vals.data(),
      pre.row_rank.data(),
      quantizer.error_bound(),
      2.0 * quantizer.error_bound(),
      static_cast<std::int32_t>(quantizer.alphabet_size() / 2),
      decorrelate,
      diag,
      staging.data()};
#if defined(SZ14_DIAGONAL_AVX2)
  if (w == 4) return decode_diagonals<4>(job);
#endif
  decode_diagonals<2>(job);
}

template <typename T>
PassCounters pq_compress_walk(std::span<const T> data, const Dims& dims,
                              const LayerPredictor& predictor,
                              const LinearQuantizer& quantizer,
                              const UnpredictableCodecT<T>& unpred, double eb,
                              bool decorrelate,
                              std::span<std::uint16_t> codes,
                              std::span<T> recon, BitWriter& bw) {
  // The lossless fallback (eb <= 0) makes every point unpredictable: the
  // reordered walks would analyse each point twice (reconstruct in the
  // walk, encode in the emission pass) for zero overlap benefit, so that
  // case takes the inline-emitting generic walk.
  if (!(eb > 0.0))
    return pq_compress_walk_generic(data, dims, predictor, quantizer, unpred,
                                    eb, decorrelate, codes, recon, bw);
  if (takes_diagonal_walk(dims, predictor))
    return lorenzo_compress_walk(lorenzo_lane_widths().back(), data, dims,
                                 quantizer, unpred, decorrelate, codes, recon,
                                 bw);
  const auto radius =
      static_cast<std::int32_t>(quantizer.alphabet_size() / 2);
  CompressBodyFast<T> body{data.data(),
                           codes.data(),
                           recon.data(),
                           &unpred,
                           quantizer.error_bound(),
                           2.0 * quantizer.error_bound(),
                           static_cast<double>(radius),
                           radius,
                           decorrelate};
  walk_fast<T>(dims, dims.extents(), predictor, body);
  const PassCounters counters{body.predictable, body.strict_hits};
  if (counters.predictable != data.size())
    emit_unpredictable(data, codes, recon, unpred, bw);
  return counters;
}

template <typename T>
PassCounters pq_compress_walk_generic(std::span<const T> data,
                                      const Dims& dims,
                                      const LayerPredictor& predictor,
                                      const LinearQuantizer& quantizer,
                                      const UnpredictableCodecT<T>& unpred,
                                      double eb, bool decorrelate,
                                      std::span<std::uint16_t> codes,
                                      std::span<T> recon, BitWriter& bw) {
  CompressBodyGeneric<T> body{data.data(), codes.data(), recon.data(),
                              &quantizer, &unpred, &bw, eb, decorrelate};
  walk_generic<T>(dims, predictor, body);
  return {body.predictable, body.strict_hits};
}

std::size_t box_limit(const Dims& dims, std::span<const std::size_t> box) {
  const std::size_t rank = dims.rank();
  if (rank != 2 && rank != 3) return dims.count();
  std::size_t last = 0;
  for (std::size_t a = 0; a < rank; ++a) last += (box[a] - 1) * dims.stride(a);
  return last + 1;
}

template <typename T>
void pq_decompress_walk(std::span<const std::uint16_t> codes,
                        const Dims& dims, std::span<const std::size_t> box,
                        const LayerPredictor& predictor,
                        const LinearQuantizer& quantizer,
                        const UnpredictableCodecT<T>& unpred,
                        bool decorrelate, std::span<T> out, BitReader& br) {
  if (takes_diagonal_walk(dims, predictor))
    return lorenzo_decompress_walk(lorenzo_lane_widths().back(), codes, dims,
                                   box, quantizer, unpred, decorrelate, out,
                                   br);
  const Predecoded<T> pre(codes, dims, unpred, br);
  const auto radius =
      static_cast<std::int32_t>(quantizer.alphabet_size() / 2);
  DecompressBodyFast<T> body{codes.data(),
                             out.data(),
                             quantizer.error_bound(),
                             2.0 * quantizer.error_bound(),
                             radius,
                             decorrelate,
                             pre.vals.data(),
                             pre.row_rank.data()};
  walk_fast<T>(dims, box, predictor, body);
}

#define SZ14_KERNEL_INSTANCES(T)                                              \
  template PassCounters pq_compress_walk<T>(                                  \
      std::span<const T>, const Dims&, const LayerPredictor&,                 \
      const LinearQuantizer&, const UnpredictableCodecT<T>&, double, bool,    \
      std::span<std::uint16_t>, std::span<T>, BitWriter&);                    \
  template PassCounters pq_compress_walk_generic<T>(                          \
      std::span<const T>, const Dims&, const LayerPredictor&,                 \
      const LinearQuantizer&, const UnpredictableCodecT<T>&, double, bool,    \
      std::span<std::uint16_t>, std::span<T>, BitWriter&);                    \
  template void pq_decompress_walk<T>(                                        \
      std::span<const std::uint16_t>, const Dims&,                            \
      std::span<const std::size_t>, const LayerPredictor&,                    \
      const LinearQuantizer&, const UnpredictableCodecT<T>&, bool,            \
      std::span<T>, BitReader&);                                              \
  template PassCounters lorenzo_compress_walk<T>(                             \
      unsigned, std::span<const T>, const Dims&, const LinearQuantizer&,      \
      const UnpredictableCodecT<T>&, bool, std::span<std::uint16_t>,          \
      std::span<T>, BitWriter&);                                              \
  template void lorenzo_decompress_walk<T>(                                   \
      unsigned, std::span<const std::uint16_t>, const Dims&,                  \
      std::span<const std::size_t>, const LinearQuantizer&,                   \
      const UnpredictableCodecT<T>&, bool, std::span<T>, BitReader&);
SZ14_KERNEL_INSTANCES(float)
SZ14_KERNEL_INSTANCES(double)
#undef SZ14_KERNEL_INSTANCES

}  // namespace sz14::detail
