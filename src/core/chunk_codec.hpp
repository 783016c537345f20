// The one chunk codec behind both SZ-1.4 containers (paper Algorithm 1).
//
// A chunk is an independent prediction domain: the predict+quantize walk
// (core/kernels) turns its values into quantization codes plus a packed
// unpredictable payload, and an entropy table — Huffman or rANS, built
// from the merged histogram of every chunk it serves — codes the codes.
// The SZ14 stream (core/compressor) is the one-chunk case with its table
// inline; the SZP3 slab container (parallel/parallel_codec) is the N-chunk
// case with one shared table in its header.  Each container keeps only its
// own framing.
#pragma once

#include <limits>
#include <optional>

#include "common/bytebuffer.hpp"
#include "common/dims.hpp"
#include "common/exec_policy.hpp"
#include "encoding/huffman.hpp"
#include "encoding/rans.hpp"

namespace sz14 {

/// The codec parameters every chunk of a field shares (the paper's eb, m
/// and n, plus the decorrelation dither).
struct ChunkParams {
  double eb = 0.0;
  unsigned interval_bits = 8;
  unsigned layers = 1;
  bool decorrelate = false;

  /// Codes 0 .. 2^m - 1 (LinearQuantizer::alphabet_size).
  [[nodiscard]] std::size_t alphabet_size() const noexcept {
    return std::size_t{1} << interval_bits;
  }
};

/// What one chunk's walk leaves besides its codes and reconstruction.
struct ChunkWalk {
  std::vector<std::uint8_t> unpred_bits;  // bit-packed unpredictable payload
  std::size_t predictable = 0;            // hit ANY quantization interval
  /// Points whose prediction itself was within eb (|f(x) - V(x)| <= eb) —
  /// the stricter Sec. III-B definition used by the Table II layer study;
  /// `predictable` uses the Sec. IV-A interval definition (Fig. 4).
  std::size_t strict_hits = 0;
};

/// Predict and quantize one chunk on the calling thread.  `codes` and
/// `recon` must hold data.size() == dims.count() elements; the walk writes
/// every one.  Throws std::invalid_argument for an m or n out of range.
template <typename T>
ChunkWalk encode_chunk(std::span<const T> data, const Dims& dims,
                       const ChunkParams& p, std::span<std::uint16_t> codes,
                       std::span<T> recon);

/// One entropy table serving any number of chunks.  The backend choice is
/// made here, once: every method dispatches through the backend's row of
/// a two-row operations table.
class EntropyTable {
 public:
  /// Encode side: the table for `hist`, the merged histogram of every
  /// chunk the table serves.
  EntropyTable(EntropyBackend backend, std::span<const std::uint64_t> hist);
  /// Decode side: the table write() stored at `in`.  Throws
  /// std::runtime_error on an unknown backend or a malformed table.
  EntropyTable(EntropyBackend backend, ByteReader& in, bool tagged);

  /// Serialize the table.  `tagged` puts the backend's section magic (if
  /// it has one) ahead of it: SZ14's one-shot section is tagged, SZP3's
  /// header table is not.
  void write(ByteWriter& out, bool tagged) const;

  /// Append one chunk's payload as `varint n_bytes | payload`.  `hist` is
  /// that chunk's own histogram: when it fixes the payload size (Huffman)
  /// the bits go straight into `out`.  Once the payload size is known,
  /// `out` grows once, by the section plus the `trailing` bytes the caller
  /// appends after it, so a container that ends with those bytes is one
  /// exact allocation.
  void append_payload(std::span<const std::uint16_t> codes,
                      std::span<const std::uint64_t> hist, ByteWriter& out,
                      std::size_t trailing = 0) const;

  /// Decode the first min(limit, n_codes) of the `n_codes` codes in one
  /// chunk's payload into `codes`.  Every check of the declared count
  /// against the payload runs whatever the limit; throws
  /// std::runtime_error on a truncated or corrupt payload.
  void decode_payload(
      std::span<const std::uint8_t> payload, std::size_t n_codes,
      std::vector<std::uint16_t>& codes,
      std::size_t limit = std::numeric_limits<std::size_t>::max()) const;

 private:
  struct Ops;
  static const Ops& ops_of(EntropyBackend backend);

  const Ops* ops_;
  // Huffman: code lengths; packed (code << 8 | length) entries to encode,
  // or the decoder.
  std::vector<std::uint8_t> lengths_;
  std::vector<std::uint64_t> packed_;
  std::optional<HuffmanDecoder> huffman_;
  // rANS: normalized frequencies; the encode or the decode tables.
  std::vector<std::uint32_t> freqs_;
  std::optional<RansEncTable> rans_enc_;
  std::optional<RansDecoder> rans_dec_;
};

/// Decode one chunk, or only its leading box: the entropy payload
/// (`n_codes` codes, see EntropyTable::decode_payload) through the box's
/// last point, then the reconstruction walk.  `dims` is the chunk's shape,
/// which may be just its first planes along axis 0, and `box` (box[a] in
/// [1, extent(a)] of `dims`) the part to reconstruct.  Every predictor
/// tap reaches back on every axis (paper Theorem 1, k_j >= 0), so a point
/// depends only on the box from the origin to itself: values inside the
/// box are bit-identical to a whole-chunk decode, and values outside it
/// are left as they are (ranks 1 and 4 decode the box's planes whole).
///
/// The values go to `out` (dims.count() elements), or, when `grow` is
/// non-null, to *grow, resized only after the payload has passed its
/// checks, so a header claiming absurd extents allocates nothing.
/// `entropy_seconds`, when non-null, receives the thread CPU time of the
/// payload decode.
template <typename T>
void decode_chunk(const EntropyTable& table,
                  std::span<const std::uint8_t> payload, std::size_t n_codes,
                  std::span<const std::uint8_t> unpred_bits, const Dims& dims,
                  std::span<const std::size_t> box, const ChunkParams& p,
                  std::span<T> out, std::vector<T>* grow,
                  double* entropy_seconds = nullptr);

}  // namespace sz14
