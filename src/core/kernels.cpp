#include "core/kernels.hpp"

#include <array>
#include <cmath>
#include <type_traits>
#include <vector>

#include "core/field_utils.hpp"

namespace sz14::detail {

namespace {

// The prediction-quantization walk is latency-bound, not overhead-bound:
// each point's prediction reads the reconstruction of the immediately
// preceding point, so the FP chain (predict -> diff -> divide -> round ->
// reconstruct -> store) serializes at ~25 ns/point regardless of how cheap
// the surrounding bookkeeping is.  The fast kernels therefore run a
// WAVEFRONT over kWave interior rows at a 1-column skew: row r+1 trails
// row r by one column, which satisfies every stencil dependency (taps
// reach back <= layers rows, and a row one step behind has already passed
// the needed column), so kWave independent chains are in flight and the
// core's FP units actually fill up.  Values are bit-identical because each
// point still sees exactly the same inputs — only the interleaving order
// changes.
//
// Two order-sensitive side channels are made order-independent first:
//  - compress: unpredictable points only *reconstruct* during the walk
//    (UnpredictableCodecT::reconstruct); the bitstream is emitted in index
//    order afterwards from the codes array, so bits match the seed layout.
//  - decompress: the unpredictable bitstream is pre-decoded in index order
//    into an array; each row starts at its precomputed rank (count of
//    unpredictable points before the row), so wavefront rows pull their
//    own values independently.
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
/// int32(radius)).  With kRecip == false the arithmetic is
/// operation-for-operation LinearQuantizer::quantize, so results stay
/// bit-identical (enforced by tests/test_kernels.cpp).  With kRecip == true the divide on the serial
/// prediction chain becomes a reciprocal multiply (inv_2eb == 1 / (2*eb)):
/// the interval index may round differently near boundaries, but the final
/// reconstruction check demotes any point whose stored value would violate
/// the bound, so the stream stays |x - x'| <= eb conformant
/// (tests/test_conformance.cpp).
template <typename T, bool kRecip>
inline QuantResultT<T> quantize_hoisted(T real, double pred, double eb,
                                        double two_eb, double inv_2eb,
                                        double radius_d,
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
  const double scaled = kRecip ? diff * inv_2eb : diff / two_eb;
  const bool in_range = std::fabs(scaled) < radius_d;
  const double safe = in_range ? scaled : 0.0;
  std::int32_t q;
  if constexpr (kRecip) {
    // trunc(x + copysign(0.5, x)) is 2 cheap ops on the serial chain where
    // the exact compare-based round costs ~5.  It disagrees with
    // round-half-away only when x + 0.5 rounds across an integer (the
    // nextafter(0.5)-style ties) — a one-interval shift the reconstruction
    // guard below keeps bound-conformant, which is all turbo promises.
    q = static_cast<std::int32_t>(safe + std::copysign(0.5, safe));
  } else {
    q = LinearQuantizer::round_half_away(safe);
  }
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
/// kRecip selects the turbo reciprocal-multiply quantization (see above).
/// The pointers are __restrict so input loads do not serialize against the
/// reconstruction stores (data/codes/recon never alias by contract); turbo
/// additionally skips the Sec. III-B strict-hit statistic — it is advisory
/// (Table II layer study) and costs a compare-add on every point.
template <typename T, bool kRecip>
struct CompressBodyFast {
  const T* __restrict data;
  std::uint16_t* __restrict codes;
  T* __restrict recon;
  const UnpredictableCodecT<T>* unpred;
  double eb;
  double two_eb;
  double inv_2eb;
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
    if constexpr (!kRecip)
      strict_hits += static_cast<std::size_t>(
          std::fabs(pred - static_cast<double>(data[i])) <= eb);
    const double grid_pred = decorrelate ? pred + dither_for(i, eb) : pred;
    const QuantResultT<T> q = quantize_hoisted<T, kRecip>(
        data[i], grid_pred, eb, two_eb, inv_2eb, radius_d, radius_i);
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
/// border columns take the checked path, interior columns the tap loop or
/// the hardcoded Lorenzo stencil.  `row_base` is the linear index of
/// (row, 0); `prefix` holds the slower coordinates for border points.
template <typename T, typename Body>
inline void row_point(Body& body, const LayerPredictor& predictor,
                      std::size_t n, const T* v, std::size_t row_base,
                      std::size_t c, std::size_t L, std::size_t s0,
                      std::size_t s1, std::size_t rank,
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
  if (L == 1) {
    if (rank == 2) {
      body.point(i, st, [&] {
        // Lorenzo taps in enumeration order: (0,1) (1,0) -(1,1).
        return static_cast<double>(v[i - 1]) + static_cast<double>(v[i - s0]) -
               static_cast<double>(v[i - s0 - 1]);
      });
    } else {
      body.point(i, st, [&] {
        // Lorenzo taps in enumeration order:
        // (0,0,1) (0,1,0) -(0,1,1) (1,0,0) -(1,0,1) -(1,1,0) (1,1,1).
        return static_cast<double>(v[i - 1]) + static_cast<double>(v[i - s1]) -
               static_cast<double>(v[i - s1 - 1]) +
               static_cast<double>(v[i - s0]) -
               static_cast<double>(v[i - s0 - 1]) -
               static_cast<double>(v[i - s0 - s1]) +
               static_cast<double>(v[i - s0 - s1 - 1]);
      });
    }
  } else {
    body.point(i, st,
               [&] { return tap_predict(v, i, taps, ntaps); });
  }
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
               const LayerPredictor& predictor,
                    std::size_t n, std::size_t C, std::size_t L,
                    std::size_t s0, std::size_t s1, std::size_t rank,
                    std::size_t row0,  // natural-row id of the first row
                    std::size_t base0,  // linear index of (row0, 0)
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
                   s0, s1, rank, {prefix[j].data(), rank - 1}, taps, ntaps,
                   st[j]);
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
  // Steady Lorenzo loops carry each row's previous-column reconstruction in
  // a register: the (0,..,1) tap is the value this row stored one step ago,
  // and reloading it costs a store-to-load forward plus a float->double
  // conversion on the serial chain.  Registers hold the identical value, so
  // results stay bit-for-bit the same.
  std::array<T, kWave> prev{};
  // i = row_base[j] + s replaces the per-point j * row_stride multiply.
  std::array<std::size_t, kWave> row_base{};
  if (L == 1 && (rank == 2 || rank == 3)) {
    for (std::size_t j = 0; j < g; ++j) {
      prev[j] = v[base0 + j * row_stride + (steady_lo - 1 - j)];
      row_base[j] = base0 + j * row_stride - j;
    }
  }
  if (L == 1 && rank == 2) {
    for (std::size_t s = steady_lo; s < C; ++s) {
      for (std::size_t j = 0; j < g; ++j) {
        const std::size_t i = row_base[j] + s;
        prev[j] = body.point(i, st[j], [&] {
          return static_cast<double>(prev[j]) +
                 static_cast<double>(v[i - s0]) -
                 static_cast<double>(v[i - s0 - 1]);
        });
      }
    }
  } else if (L == 1 && rank == 3) {
    for (std::size_t s = steady_lo; s < C; ++s) {
      for (std::size_t j = 0; j < g; ++j) {
        const std::size_t i = row_base[j] + s;
        prev[j] = body.point(i, st[j], [&] {
          return static_cast<double>(prev[j]) +
                 static_cast<double>(v[i - s1]) -
                 static_cast<double>(v[i - s1 - 1]) +
                 static_cast<double>(v[i - s0]) -
                 static_cast<double>(v[i - s0 - 1]) -
                 static_cast<double>(v[i - s0 - s1]) +
                 static_cast<double>(v[i - s0 - s1 - 1]);
        });
      }
    }
  } else {
    for (std::size_t s = steady_lo; s < C; ++s) {
      for (std::size_t j = 0; j < g; ++j) {
        const std::size_t i = base0 + j * row_stride + (s - j);
        body.point(i, st[j], [&] { return tap_predict(v, i, taps, ntaps); });
      }
    }
  }
  for (std::size_t s = C; s < C + g - 1; ++s) general_step(s);
  return body;
}

/// The 2D and 3D walks cover the leading box `box` (box[a] <= extent(a))
/// of `dims`: loops run over the box's extents, while strides, linear
/// indices and natural row ids (begin_row) stay the whole array's, so a
/// box point sees exactly the inputs it sees in a whole-array walk.
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
    body = wavefront_rows<T>(body, predictor, n, C, L, s0, /*s1=*/0,
                             /*rank=*/2, /*row0=*/r, /*base0=*/r * s0,
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
      body = wavefront_rows<T>(body, predictor, n, C, L, s0, s1, /*rank=*/3,
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

}  // namespace

template <typename T>
PassCounters pq_compress_walk(std::span<const T> data, const Dims& dims,
                              const LayerPredictor& predictor,
                              const LinearQuantizer& quantizer,
                              const UnpredictableCodecT<T>& unpred, double eb,
                              bool decorrelate, HotPathMode mode,
                              std::span<std::uint16_t> codes,
                              std::span<T> recon, BitWriter& bw) {
  // The lossless fallback (eb <= 0) makes every point unpredictable: the
  // wavefront would analyse each point twice (reconstruct in the walk,
  // encode in the emission pass) for zero overlap benefit, so that case
  // takes the inline-emitting generic walk.
  if (!(eb > 0.0))
    return pq_compress_walk_generic(data, dims, predictor, quantizer, unpred,
                                    eb, decorrelate, codes, recon, bw);
  const auto radius =
      static_cast<std::int32_t>(quantizer.alphabet_size() / 2);
  // kRecip is the only difference between the kFast and kTurbo bodies.
  const auto run = [&](auto recip) {
    CompressBodyFast<T, decltype(recip)::value> body{
        data.data(),
        codes.data(),
        recon.data(),
        &unpred,
        quantizer.error_bound(),
        2.0 * quantizer.error_bound(),
        quantizer.inv_interval(),
        static_cast<double>(radius),
        radius,
        decorrelate};
    walk_fast<T>(dims, dims.extents(), predictor, body);
    return PassCounters{body.predictable, body.strict_hits};
  };
  const PassCounters counters = mode == HotPathMode::kTurbo
                                    ? run(std::true_type{})
                                    : run(std::false_type{});
  // Emit the unpredictable bitstream in index order (the wavefront visits
  // points out of order; bits must not).
  if (counters.predictable != data.size()) {
    const std::uint16_t* c = codes.data();
    for (std::size_t i = 0; i < data.size(); ++i)
      if (c[i] == 0) (void)unpred.encode(data[i], bw);
  }
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
                        bool decorrelate, std::span<T> out, BitReader& br,
                        CodecScratch* scratch) {
  // Pre-decode the unpredictable stream in index order and record each
  // natural row's starting rank so wavefront rows can pull independently.
  // The codes end at the box's last point, which may cut its row short.
  // With a scratch arena both staging vectors keep their capacity across
  // calls; they are consumed within this walk, so reuse is invisible.
  const std::size_t n = codes.size();
  const std::size_t rank = dims.rank();
  const std::size_t rowlen =
      (rank == 2 || rank == 3) ? dims.extent(rank - 1) : n;
  const std::size_t nrows = (n + rowlen - 1) / rowlen;
  std::vector<std::size_t> local_row_rank;
  std::vector<T> local_unpred_vals;
  CodecScratch::Buffers* bufs = scratch ? &scratch->local() : nullptr;
  std::vector<std::size_t>& row_rank =
      bufs ? bufs->row_ranks() : local_row_rank;
  std::vector<T>& unpred_vals =
      bufs ? bufs->unpredictable_values<T>() : local_unpred_vals;
  row_rank.assign(nrows, 0);
  unpred_vals.clear();
  std::size_t i = 0;
  for (std::size_t row = 0; row < nrows; ++row) {
    row_rank[row] = unpred_vals.size();
    for (const std::size_t end = std::min(i + rowlen, n); i < end; ++i)
      if (codes[i] == 0) unpred_vals.push_back(unpred.decode(br));
  }
  const auto radius =
      static_cast<std::int32_t>(quantizer.alphabet_size() / 2);
  DecompressBodyFast<T> body{codes.data(),
                             out.data(),
                             quantizer.error_bound(),
                             2.0 * quantizer.error_bound(),
                             radius,
                             decorrelate,
                             unpred_vals.data(),
                             row_rank.data()};
  walk_fast<T>(dims, box, predictor, body);
}

template PassCounters pq_compress_walk<float>(
    std::span<const float>, const Dims&, const LayerPredictor&,
    const LinearQuantizer&, const UnpredictableCodecT<float>&, double, bool,
    HotPathMode, std::span<std::uint16_t>, std::span<float>, BitWriter&);
template PassCounters pq_compress_walk<double>(
    std::span<const double>, const Dims&, const LayerPredictor&,
    const LinearQuantizer&, const UnpredictableCodecT<double>&, double, bool,
    HotPathMode, std::span<std::uint16_t>, std::span<double>, BitWriter&);
template PassCounters pq_compress_walk_generic<float>(
    std::span<const float>, const Dims&, const LayerPredictor&,
    const LinearQuantizer&, const UnpredictableCodecT<float>&, double, bool,
    std::span<std::uint16_t>, std::span<float>, BitWriter&);
template PassCounters pq_compress_walk_generic<double>(
    std::span<const double>, const Dims&, const LayerPredictor&,
    const LinearQuantizer&, const UnpredictableCodecT<double>&, double, bool,
    std::span<std::uint16_t>, std::span<double>, BitWriter&);
template void pq_decompress_walk<float>(
    std::span<const std::uint16_t>, const Dims&, std::span<const std::size_t>,
    const LayerPredictor&, const LinearQuantizer&,
    const UnpredictableCodecT<float>&, bool,
    std::span<float>, BitReader&, CodecScratch*);
template void pq_decompress_walk<double>(
    std::span<const std::uint16_t>, const Dims&, std::span<const std::size_t>,
    const LayerPredictor&, const LinearQuantizer&,
    const UnpredictableCodecT<double>&, bool,
    std::span<double>, BitReader&, CodecScratch*);

}  // namespace sz14::detail
