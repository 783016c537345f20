#include "core/compressor.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "common/bytebuffer.hpp"
#include "core/field_utils.hpp"
#include "core/format.hpp"

namespace sz14 {

namespace {

template <typename T>
constexpr std::uint8_t dtype_of() {
  return sizeof(T) == 4 ? kDtypeF32 : kDtypeF64;
}

}  // namespace

template <typename T>
double resolve_error_bound_for(std::span<const T> data, const Options& opts) {
  double range = 0.0;
  if (std::isfinite(opts.eb_rel)) {
    const auto [lo, hi] = finite_range(data);
    range = hi - lo;
  }
  return resolve_error_bound(opts, range);
}

template double resolve_error_bound_for<float>(std::span<const float>,
                                               const Options&);
template double resolve_error_bound_for<double>(std::span<const double>,
                                                const Options&);

double resolve_error_bound(const Options& opts, double value_range) {
  // Neither bound set leaves eb infinite, which is no usable bound either.
  double eb = std::numeric_limits<double>::infinity();
  if (std::isfinite(opts.eb_abs)) eb = opts.eb_abs;
  if (std::isfinite(opts.eb_rel)) eb = std::min(eb, opts.eb_rel * value_range);
  if (!std::isfinite(eb) || eb < 0.0)
    return std::numeric_limits<double>::quiet_NaN();
  return eb;  // may be 0 (e.g. relative bound on zero-range data)
}

template <typename T>
PassResultT<T> prediction_quantization_pass(std::span<const T> data,
                                            const Dims& dims, unsigned layers,
                                            unsigned interval_bits, double eb,
                                            bool decorrelate) {
  if (data.size() != dims.count())
    throw std::invalid_argument("sz14: data size does not match dims");
  PassResultT<T> r;
  r.codes.resize(data.size());
  r.reconstructed.resize(data.size());
  static_cast<ChunkWalk&>(r) =
      encode_chunk<T>(data, dims, {eb, interval_bits, layers, decorrelate},
                      r.codes, r.reconstructed);
  return r;
}

template PassResultT<float> prediction_quantization_pass<float>(
    std::span<const float>, const Dims&, unsigned, unsigned, double, bool);
template PassResultT<double> prediction_quantization_pass<double>(
    std::span<const double>, const Dims&, unsigned, unsigned, double, bool);

namespace {

/// The one-chunk case of the chunk codec: header, then the table inline
/// (tagged), the code count, the payload and the unpredictable bytes.
template <typename T>
std::vector<std::uint8_t> compress_impl(std::span<const T> data,
                                        const Dims& dims, const Options& opts,
                                        CompressStats* stats) {
  if (data.size() != dims.count())
    throw std::invalid_argument("sz14: data size does not match dims");
  const double eb = resolve_error_bound_for(data, opts);
  if (std::isnan(eb))
    throw std::invalid_argument(
        "sz14: no usable error bound (set eb_abs and/or eb_rel)");

  // The walk writes every element of codes/recon, so both buffers skip
  // value-initialization (the ~6 bytes/element memset is measurable at
  // field scale); both die with this scope.
  const std::size_t n = data.size();
  const auto codes_own = std::make_unique_for_overwrite<std::uint16_t[]>(n);
  const auto recon_own = std::make_unique_for_overwrite<T[]>(n);
  const std::span<std::uint16_t> codes{codes_own.get(), n};
  const std::span<T> recon{recon_own.get(), n};
  const ChunkParams p{eb, opts.interval_bits, opts.layers, opts.decorrelate};
  const ChunkWalk walk =
      encode_chunk<T>(data, dims, p, codes, recon);
  const auto hist = huffman_histogram(codes, p.alphabet_size());
  const EntropyTable table(opts.exec.entropy, hist);

  ByteWriter out;
  write_header({.dims = dims,
                .eb_abs = eb,
                .dtype = dtype_of<T>(),
                .interval_bits = static_cast<std::uint8_t>(opts.interval_bits),
                .layers = static_cast<std::uint8_t>(opts.layers),
                .decorrelate = opts.decorrelate,
                .entropy = opts.exec.entropy},
               out);
  table.write(out, /*tagged=*/true);
  out.put_varint(n);
  table.append_payload(
      codes, hist, out,
      varint_size(walk.unpred_bits.size()) + walk.unpred_bits.size());
  out.put_varint(walk.unpred_bits.size());
  out.put_bytes(walk.unpred_bits);

  if (stats) {
    stats->total = n;
    stats->predictable = walk.predictable;
    stats->resolved_eb = eb;
    stats->compressed_bytes = out.size();
  }
  return std::move(out).take();
}

/// Shared decode core: into the caller's `fixed_out` (which must already
/// match the element count of the box's planes), or into *owned_out when
/// it is non-null.  Only the leading `box` is decoded; the entropy section
/// is still parsed and checked against the full header.
template <typename T>
StreamInfo decompress_core(std::span<const std::uint8_t> stream,
                           std::span<T> fixed_out, std::vector<T>* owned_out,
                           const LeadBox& box) {
  ByteReader in(stream);
  const StreamHeader h = read_header(in);
  if (h.dtype != dtype_of<T>())
    throw std::runtime_error("sz14: stream dtype mismatch (use decompress" +
                             std::string(h.dtype == kDtypeF64 ? "64" : "") +
                             ")");
  LeadBox b{};
  for (std::size_t a = 0; a < h.dims.rank(); ++a) {
    if (box[a] == 0)
      throw std::invalid_argument("sz14: empty decode box on axis " +
                                  std::to_string(a));
    b[a] = std::min(box[a], h.dims.extent(a));
  }
  const Dims dims = h.dims.with_planes(b[0]);
  if (!owned_out && fixed_out.size() != dims.count())
    throw std::invalid_argument("sz14: output buffer size mismatch");

  // The entropy backend is read off the stream.  The code count must be
  // the header's before anything is allocated.
  const EntropyTable table(h.entropy, in, /*tagged=*/true);
  const auto n_codes = static_cast<std::size_t>(in.get_varint());
  if (n_codes != h.dims.count())
    throw std::runtime_error("sz14: quantization array size mismatch");
  const auto payload = in.get_bytes(static_cast<std::size_t>(in.get_varint()));
  const auto unpred = in.get_bytes(static_cast<std::size_t>(in.get_varint()));
  decode_chunk<T>(table, payload, n_codes, unpred, dims,
                  {b.data(), dims.rank()},
                  {h.eb_abs, h.interval_bits, h.layers, h.decorrelate},
                  fixed_out, owned_out);
  return {dims, h.eb_abs};
}

}  // namespace

std::vector<std::uint8_t> compress(std::span<const float> data,
                                   const Dims& dims, const Options& opts,
                                   CompressStats* stats) {
  return compress_impl<float>(data, dims, opts, stats);
}

std::vector<std::uint8_t> compress(std::span<const double> data,
                                   const Dims& dims, const Options& opts,
                                   CompressStats* stats) {
  return compress_impl<double>(data, dims, opts, stats);
}

StreamDtype stream_dtype(std::span<const std::uint8_t> stream) {
  ByteReader in(stream);
  const StreamHeader h = read_header(in);
  return h.dtype == kDtypeF64 ? StreamDtype::kF64 : StreamDtype::kF32;
}

DecompressResult decompress(std::span<const std::uint8_t> stream,
                            const LeadBox& box) {
  DecompressResult r;
  static_cast<StreamInfo&>(r) =
      decompress_core<float>(stream, {}, &r.data, box);
  return r;
}

DecompressResult64 decompress64(std::span<const std::uint8_t> stream,
                                const LeadBox& box) {
  DecompressResult64 r;
  static_cast<StreamInfo&>(r) =
      decompress_core<double>(stream, {}, &r.data, box);
  return r;
}

StreamInfo decompress_into(std::span<const std::uint8_t> stream,
                           std::span<float> out) {
  return decompress_core<float>(stream, out, nullptr, kWholeBox);
}

StreamInfo decompress_into(std::span<const std::uint8_t> stream,
                           std::span<double> out) {
  return decompress_core<double>(stream, out, nullptr, kWholeBox);
}

}  // namespace sz14
