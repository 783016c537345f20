// Dimension-specialized fused prediction + quantization kernels — the hot
// path behind compress() and decompress().
//
// The generic pass walks a CoordWalker and re-checks stencil/boundary
// containment per point.  These kernels reorder the walk so that
// independent points run at once (core/kernels.cpp explains both orders):
// the 1-layer (Lorenzo) stencil of a rank-2 or rank-3 array runs along
// anti-diagonals, several points per SIMD vector, and deeper stencils run
// a row wavefront over a plain tap loop, with border points on the
// predictor's zero-extension path.  Every point still sees exactly the
// inputs, and accumulates them in exactly the order, of
// LayerPredictor::predict, so codes, reconstructions, and unpredictable
// bitstreams are bit-identical to the generic pass (enforced by
// tests/test_kernels.cpp against pq_compress_walk_generic); rank-4 shapes
// run the same bodies over the generic walk.  Every walk quantizes with
// LinearQuantizer's one exact rule, so there is one compress path per
// shape and one decoder.
#pragma once

#include <span>

#include "common/bitstream.hpp"
#include "common/dims.hpp"
#include "core/compressor.hpp"
#include "core/predictor.hpp"
#include "core/quantizer.hpp"
#include "core/unpredictable.hpp"

namespace sz14::detail {

/// Walk statistics (see ChunkWalk for the two hit definitions).
struct PassCounters {
  std::size_t predictable = 0;
  std::size_t strict_hits = 0;
};

/// Compress-side fused walk: fills codes / recon (both caller-owned and
/// written in full, so they may be uninitialized on entry) and appends
/// unpredictable-point bits to bw.  Preconditions (checked by the caller):
/// data.size() == dims.count() == codes.size() == recon.size().  The
/// lossless fallback (eb <= 0) delegates to pq_compress_walk_generic.
template <typename T>
PassCounters pq_compress_walk(std::span<const T> data, const Dims& dims,
                              const LayerPredictor& predictor,
                              const LinearQuantizer& quantizer,
                              const UnpredictableCodecT<T>& unpred, double eb,
                              bool decorrelate,
                              std::span<std::uint16_t> codes,
                              std::span<T> recon, BitWriter& bw);

/// The seed's CoordWalker walk: one containment-checked prediction per
/// point in strict index order, unpredictable bits emitted inline, exact
/// divide.  Same contract as pq_compress_walk.  Production runs it for the
/// lossless fallback (every point is unpredictable, so the wavefront gains
/// nothing); tests use it as the oracle the fast walks must match bit for
/// bit.
template <typename T>
PassCounters pq_compress_walk_generic(std::span<const T> data,
                                      const Dims& dims,
                                      const LayerPredictor& predictor,
                                      const LinearQuantizer& quantizer,
                                      const UnpredictableCodecT<T>& unpred,
                                      double eb, bool decorrelate,
                                      std::span<std::uint16_t> codes,
                                      std::span<T> recon, BitWriter& bw);

/// Codes a decode of the leading box `box` of `dims` consumes: every point
/// up to the box's last one in scan order (ranks 2 and 3), or all of
/// `dims` (ranks 1 and 4, whose walks run whole planes).
std::size_t box_limit(const Dims& dims, std::span<const std::size_t> box);

/// Decompress-side mirror: consumes codes plus the unpredictable bitstream
/// into out (out.size() == dims.count()); the error bound is the
/// quantizer's.  Only the leading box `box` (box[a] in [1, extent(a)]) is
/// reconstructed, with codes.size() == box_limit(dims, box): every
/// predictor tap reaches back on every axis, so a box point decodes
/// exactly as in the whole array, and `out` outside the box is left
/// untouched (ranks 2 and 3).
template <typename T>
void pq_decompress_walk(std::span<const std::uint16_t> codes,
                        const Dims& dims, std::span<const std::size_t> box,
                        const LayerPredictor& predictor,
                        const LinearQuantizer& quantizer,
                        const UnpredictableCodecT<T>& unpred,
                        bool decorrelate, std::span<T> out, BitReader& br);

/// Lane widths (doubles per vector) of the 1-layer anti-diagonal kernel
/// that this build can run on this CPU, narrowest first: 2 (baseline
/// SSE2 on x86-64), then 4 when the CPU has AVX2.  The two walks above
/// use the last one, chosen once per process.
std::span<const unsigned> lorenzo_lane_widths();

/// The walks pq_compress_walk and pq_decompress_walk run for a 1-layer
/// rank-2 or rank-3 array (compress: eb > 0), at `lanes`, one of
/// lorenzo_lane_widths() (anything else throws std::invalid_argument).
/// Same contracts; they let tests reach every compiled width.
template <typename T>
PassCounters lorenzo_compress_walk(unsigned lanes, std::span<const T> data,
                                   const Dims& dims,
                                   const LinearQuantizer& quantizer,
                                   const UnpredictableCodecT<T>& unpred,
                                   bool decorrelate,
                                   std::span<std::uint16_t> codes,
                                   std::span<T> recon, BitWriter& bw);
template <typename T>
void lorenzo_decompress_walk(unsigned lanes,
                             std::span<const std::uint16_t> codes,
                             const Dims& dims, std::span<const std::size_t> box,
                             const LinearQuantizer& quantizer,
                             const UnpredictableCodecT<T>& unpred,
                             bool decorrelate, std::span<T> out, BitReader& br);

/// Doubles of anti-diagonal staging the walks above allocate for the
/// leading box `box` of `dims` (box = dims.extents() for a compress walk)
/// at `lanes`, one of lorenzo_lane_widths() (anything else throws
/// std::invalid_argument).  Rank 2 stages a ring of three diagonals,
/// rank 3 the compact diagonals of two planes.
std::size_t lorenzo_staging_doubles(unsigned lanes, const Dims& dims,
                                    std::span<const std::size_t> box);

#define SZ14_KERNEL_EXTERNS(T)                                                \
  extern template PassCounters pq_compress_walk<T>(                           \
      std::span<const T>, const Dims&, const LayerPredictor&,                 \
      const LinearQuantizer&, const UnpredictableCodecT<T>&, double, bool,    \
      std::span<std::uint16_t>, std::span<T>, BitWriter&);                    \
  extern template PassCounters pq_compress_walk_generic<T>(                   \
      std::span<const T>, const Dims&, const LayerPredictor&,                 \
      const LinearQuantizer&, const UnpredictableCodecT<T>&, double, bool,    \
      std::span<std::uint16_t>, std::span<T>, BitWriter&);                    \
  extern template void pq_decompress_walk<T>(                                 \
      std::span<const std::uint16_t>, const Dims&,                            \
      std::span<const std::size_t>, const LayerPredictor&,                    \
      const LinearQuantizer&, const UnpredictableCodecT<T>&, bool,            \
      std::span<T>, BitReader&);                                              \
  extern template PassCounters lorenzo_compress_walk<T>(                      \
      unsigned, std::span<const T>, const Dims&, const LinearQuantizer&,      \
      const UnpredictableCodecT<T>&, bool, std::span<std::uint16_t>,          \
      std::span<T>, BitWriter&);                                              \
  extern template void lorenzo_decompress_walk<T>(                            \
      unsigned, std::span<const std::uint16_t>, const Dims&,                  \
      std::span<const std::size_t>, const LinearQuantizer&,                   \
      const UnpredictableCodecT<T>&, bool, std::span<T>, BitReader&);
SZ14_KERNEL_EXTERNS(float)
SZ14_KERNEL_EXTERNS(double)
#undef SZ14_KERNEL_EXTERNS

}  // namespace sz14::detail
