// Dimension-specialized fused prediction + quantization kernels — the hot
// path behind compress() and decompress().
//
// The generic pass walks a CoordWalker and re-checks stencil/boundary
// containment per point.  These kernels instead decompose the 1D/2D/3D
// index space into border segments (O(surface), handled by the predictor's
// zero-extension path) and interior row spans, where prediction is a plain
// tap loop over row pointers — and, for the default 1-layer (Lorenzo)
// stencil, a hardcoded expression.  Accumulation order matches
// LayerPredictor::predict tap-for-tap, so codes, reconstructions, and
// unpredictable bitstreams are bit-identical to the generic pass (enforced
// by tests/test_kernels.cpp against pq_compress_walk_generic); rank-4
// shapes run the same bodies over the generic walk.  HotPathMode::kTurbo
// runs the same walks with the divide on the prediction chain replaced by
// a reciprocal multiply — not bit-identical to kFast streams, but every
// point stays within the error bound (boundary-straddling points are
// demoted to unpredictable; enforced by tests/test_conformance.cpp).
//
// The mode is a compress-side argument only: decoding replays the stored
// codes exactly whatever mode wrote them, so pq_decompress_walk has one
// implementation.
#pragma once

#include <span>

#include "common/bitstream.hpp"
#include "common/dims.hpp"
#include "common/exec_policy.hpp"
#include "core/compressor.hpp"
#include "core/predictor.hpp"
#include "core/quantizer.hpp"
#include "core/unpredictable.hpp"

namespace sz14::detail {

/// Walk statistics (see ChunkWalk for the two hit definitions).
/// strict_hits is not computed by the turbo path (stays 0 there).
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
                              bool decorrelate, HotPathMode mode,
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

/// Decompress-side mirror: consumes codes plus the unpredictable bitstream
/// into out (out.size() == dims.count() == codes.size()); the error bound
/// is the quantizer's.  `scratch`, when non-null, supplies the pre-decoded
/// unpredictable-value and row-rank buffers (reused across calls, never
/// visible in the output).
template <typename T>
void pq_decompress_walk(std::span<const std::uint16_t> codes,
                        const Dims& dims, const LayerPredictor& predictor,
                        const LinearQuantizer& quantizer,
                        const UnpredictableCodecT<T>& unpred,
                        bool decorrelate, std::span<T> out, BitReader& br,
                        CodecScratch* scratch = nullptr);

extern template PassCounters pq_compress_walk<float>(
    std::span<const float>, const Dims&, const LayerPredictor&,
    const LinearQuantizer&, const UnpredictableCodecT<float>&, double, bool,
    HotPathMode, std::span<std::uint16_t>, std::span<float>, BitWriter&);
extern template PassCounters pq_compress_walk<double>(
    std::span<const double>, const Dims&, const LayerPredictor&,
    const LinearQuantizer&, const UnpredictableCodecT<double>&, double, bool,
    HotPathMode, std::span<std::uint16_t>, std::span<double>, BitWriter&);
extern template PassCounters pq_compress_walk_generic<float>(
    std::span<const float>, const Dims&, const LayerPredictor&,
    const LinearQuantizer&, const UnpredictableCodecT<float>&, double, bool,
    std::span<std::uint16_t>, std::span<float>, BitWriter&);
extern template PassCounters pq_compress_walk_generic<double>(
    std::span<const double>, const Dims&, const LayerPredictor&,
    const LinearQuantizer&, const UnpredictableCodecT<double>&, double, bool,
    std::span<std::uint16_t>, std::span<double>, BitWriter&);
extern template void pq_decompress_walk<float>(
    std::span<const std::uint16_t>, const Dims&, const LayerPredictor&,
    const LinearQuantizer&, const UnpredictableCodecT<float>&, bool,
    std::span<float>, BitReader&, CodecScratch*);
extern template void pq_decompress_walk<double>(
    std::span<const std::uint16_t>, const Dims&, const LayerPredictor&,
    const LinearQuantizer&, const UnpredictableCodecT<double>&, bool,
    std::span<double>, BitReader&, CodecScratch*);

}  // namespace sz14::detail
