// Public entry points of the SZ-1.4 codec: error-bounded lossy compression
// of d-dimensional float32/float64 arrays (1 <= d <= 4).
//
// Pipeline (paper Algorithm 1):
//   1. n-layer multidimensional prediction from *preceding reconstructed*
//      values (core/predictor),
//   2. error-controlled quantization into 2^m - 1 intervals
//      (core/quantizer); misses take the binary-representation path
//      (core/unpredictable),
//   3. variable-length encoding of the quantization codes: Huffman
//      (encoding/huffman) by default, or rANS (encoding/rans).
//
// Steps 1-3 are the chunk codec (core/chunk_codec); a stream written here
// is its one-chunk case, the slab container (parallel/parallel_codec) its
// N-chunk case.
//
// The guarantee: for every element, |x - x~| <= eb, where eb is the
// resolved absolute bound (min of the absolute bound and the value-range-
// based relative bound, whichever are set).
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/dims.hpp"
#include "common/exec_policy.hpp"
#include "core/chunk_codec.hpp"

namespace sz14 {

/// User-facing compression options (paper Sec. II, Metric 1: set either or
/// both error bounds).
struct Options {
  /// Absolute pointwise error bound (NaN = unset).
  double eb_abs = std::numeric_limits<double>::quiet_NaN();
  /// Value-range-based relative bound: eb = eb_rel * (max - min).
  double eb_rel = std::numeric_limits<double>::quiet_NaN();
  /// m: the quantizer uses 2^m - 1 intervals (default 255, m = 8).
  unsigned interval_bits = 8;
  /// n: prediction layers (default 1 = Lorenzo; data-dependent, Sec. III-B).
  unsigned layers = 1;
  /// Error-decorrelation mode (the paper's future-work item on improving
  /// the autocorrelation of compression errors on high-CF data): quantize
  /// against half-width intervals and add a deterministic +-eb/2 dither to
  /// the reconstruction.  The pointwise bound still holds; the compression
  /// factor drops slightly (one extra bit of interval resolution is spent).
  bool decorrelate = false;
  /// Execution strategy for this call (pool, entropy backend).  Never
  /// part of the stream CONTENTS contract except through one explicit
  /// trade, the rANS backend.  Pool choices are invisible in the output.
  ExecPolicy exec;
};

/// Per-call statistics, optionally returned by compress().
struct CompressStats {
  std::size_t total = 0;
  std::size_t predictable = 0;
  double resolved_eb = 0.0;
  std::size_t compressed_bytes = 0;

  /// The paper's prediction hitting rate R_PH.
  [[nodiscard]] double hitting_rate() const {
    return total ? static_cast<double>(predictable) /
                       static_cast<double>(total)
                 : 0.0;
  }
};

/// Resolve the effective absolute bound from options + data value range.
/// Returns NaN when neither bound is set (compress() then throws); a
/// resolved bound of 0 selects the lossless raw-escape fallback.
double resolve_error_bound(const Options& opts, double value_range);

/// Resolve the bound against `data` itself: scans the finite value range
/// only when a relative bound actually needs it (the common absolute-bound
/// case skips the pass over the field).  Shared by the sequential and
/// parallel whole-field entry points.
template <typename T>
double resolve_error_bound_for(std::span<const T> data, const Options& opts);

/// Compress single-precision `data` shaped `dims`.  Throws
/// std::invalid_argument when the element count mismatches dims or no
/// usable error bound results.
std::vector<std::uint8_t> compress(std::span<const float> data,
                                   const Dims& dims, const Options& opts,
                                   CompressStats* stats = nullptr);

/// Compress double-precision data (the paper's 64 bits/value case).
std::vector<std::uint8_t> compress(std::span<const double> data,
                                   const Dims& dims, const Options& opts,
                                   CompressStats* stats = nullptr);

/// Data type stored in a stream (peeks at the header without decoding).
enum class StreamDtype : std::uint8_t { kF32 = 0, kF64 = 1 };
StreamDtype stream_dtype(std::span<const std::uint8_t> stream);

/// Header facts of a decoded stream.
struct StreamInfo {
  Dims dims;
  double eb_abs = 0.0;
};

template <typename T>
struct DecompressResultT : StreamInfo {
  std::vector<T> data;
};

using DecompressResult = DecompressResultT<float>;
using DecompressResult64 = DecompressResultT<double>;

/// Decompress a float32 stream.  Throws std::runtime_error on malformed
/// input or dtype mismatch.  Decoding has one exact implementation,
/// whatever backend wrote the stream, so it takes no ExecPolicy.
///
/// `box` decodes only the leading box it names.  Every predictor tap
/// reaches back on every axis (paper Theorem 1), so a value depends only
/// on the box from the origin to itself: values inside the box are
/// bit-identical to the full decode.  The result keeps the full decode's
/// layout, cut to the box's planes: its `dims` is {min(box[0],
/// extent(0)), extent(1), ...}, and values outside the box are zero
/// (rank 4 decodes the box's planes whole).  The entropy decode stops
/// after the box's last point; the whole stream is still parsed and its
/// header and entropy counts checked.  A zero box entry throws
/// std::invalid_argument.
DecompressResult decompress(std::span<const std::uint8_t> stream,
                            const LeadBox& box = kWholeBox);

/// Decompress a float64 stream (same contract as decompress()).
DecompressResult64 decompress64(std::span<const std::uint8_t> stream,
                                const LeadBox& box = kWholeBox);

/// Decode a stream directly into a caller-owned buffer (no intermediate
/// allocation or copy).  `out.size()` must equal the stream's element
/// count, or std::invalid_argument is thrown; dtype mismatches throw
/// std::runtime_error like decompress().
StreamInfo decompress_into(std::span<const std::uint8_t> stream,
                           std::span<float> out);
StreamInfo decompress_into(std::span<const std::uint8_t> stream,
                           std::span<double> out);

/// Intermediate products of the prediction + quantization pass — the shared
/// kernel behind compress(), the best-layer analysis (Sec. III-B), and the
/// adaptive interval scheme (Sec. IV-B): the chunk walk's unpredictable
/// bits and hit counts, plus its codes and reconstruction.
template <typename T>
struct PassResultT : ChunkWalk {
  std::vector<std::uint16_t> codes;  // one per element; 0=unpredictable
  std::vector<T> reconstructed;      // decompressed values
};

using PassResult = PassResultT<float>;

/// Run the pass on its own (codes + reconstruction, no entropy stage).
/// The result owns its buffers.
template <typename T>
PassResultT<T> prediction_quantization_pass(std::span<const T> data,
                                            const Dims& dims, unsigned layers,
                                            unsigned interval_bits, double eb,
                                            bool decorrelate = false);

/// Convenience overload so float callers keep working without explicit
/// template arguments.
inline PassResult prediction_quantization_pass(std::span<const float> data,
                                               const Dims& dims,
                                               unsigned layers,
                                               unsigned interval_bits,
                                               double eb,
                                               bool decorrelate = false) {
  return prediction_quantization_pass<float>(data, dims, layers,
                                             interval_bits, eb, decorrelate);
}

}  // namespace sz14
