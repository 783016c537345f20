#include "core/compressor.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "common/bitstream.hpp"
#include "common/bytebuffer.hpp"
#include "core/field_utils.hpp"
#include "core/format.hpp"
#include "core/kernels.hpp"
#include "core/predictor.hpp"
#include "core/quantizer.hpp"
#include "core/unpredictable.hpp"
#include "encoding/huffman.hpp"
#include "encoding/rans.hpp"

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
  double eb = std::numeric_limits<double>::infinity();
  bool any = false;
  if (std::isfinite(opts.eb_abs)) {
    eb = std::min(eb, opts.eb_abs);
    any = true;
  }
  if (std::isfinite(opts.eb_rel)) {
    eb = std::min(eb, opts.eb_rel * value_range);
    any = true;
  }
  if (!any || !std::isfinite(eb) || eb < 0.0)
    return std::numeric_limits<double>::quiet_NaN();
  return eb;  // may be 0 (e.g. relative bound on zero-range data)
}

template <typename T>
PassResultT<T> prediction_quantization_pass(std::span<const T> data,
                                            const Dims& dims, unsigned layers,
                                            unsigned interval_bits, double eb,
                                            bool decorrelate,
                                            const ExecPolicy& exec) {
  if (data.size() != dims.count())
    throw std::invalid_argument("sz14: data size does not match dims");
  const std::size_t n = data.size();
  PassResultT<T> r;
  r.codes.resize(n);
  r.reconstructed.resize(n);

  const LayerPredictor predictor(dims, layers);
  // Decorrelation dithers the quantization grid by a per-index offset; the
  // rounding guarantee is unaffected, but the error loses its spatial
  // structure (the paper's future-work item for high-CF data).
  const LinearQuantizer quantizer(interval_bits, eb);
  const UnpredictableCodecT<T> unpred(eb);
  BitWriter bw;
  const detail::PassCounters counters = detail::pq_compress_walk<T>(
      data, dims, predictor, quantizer, unpred, eb, decorrelate, exec.mode,
      r.codes, r.reconstructed, bw);
  r.predictable = counters.predictable;
  r.strict_hits = counters.strict_hits;
  r.unpred_bits = std::move(bw).finish();
  return r;
}

template PassResultT<float> prediction_quantization_pass<float>(
    std::span<const float>, const Dims&, unsigned, unsigned, double, bool,
    const ExecPolicy&);
template PassResultT<double> prediction_quantization_pass<double>(
    std::span<const double>, const Dims&, unsigned, unsigned, double, bool,
    const ExecPolicy&);

namespace {

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
  // field scale); recon is scratch and dies with this scope — or comes
  // from the caller's arena, where it survives for the next call.
  const std::size_t n = data.size();
  std::unique_ptr<std::uint16_t[]> codes_own;
  std::unique_ptr<T[]> recon_own;
  const std::span<std::uint16_t> codes =
      scratch_codes_or(opts.exec.scratch, codes_own, n);
  const std::span<T> recon =
      scratch_recon_or<T>(opts.exec.scratch, recon_own, n);
  const LayerPredictor predictor(dims, opts.layers);
  const LinearQuantizer quantizer(opts.interval_bits, eb);
  const UnpredictableCodecT<T> unpred(eb);
  BitWriter bw;
  const detail::PassCounters counters = detail::pq_compress_walk<T>(
      data, dims, predictor, quantizer, unpred, eb, opts.decorrelate,
      opts.exec.mode, codes, recon, bw);
  const auto unpred_bits = std::move(bw).finish();

  ByteWriter out;
  StreamHeader h;
  h.dims = dims;
  h.eb_abs = eb;
  h.dtype = dtype_of<T>();
  h.interval_bits = static_cast<std::uint8_t>(opts.interval_bits);
  h.layers = static_cast<std::uint8_t>(opts.layers);
  h.decorrelate = opts.decorrelate;
  h.rans_entropy = opts.exec.entropy == EntropyBackend::kRans;
  write_header(h, out);

  if (h.rans_entropy)
    rans_encode(codes, quantizer.alphabet_size(), out);
  else
    huffman_encode(codes, quantizer.alphabet_size(), out);
  out.put_varint(unpred_bits.size());
  out.put_bytes(unpred_bits);

  if (stats) {
    stats->total = data.size();
    stats->predictable = counters.predictable;
    stats->resolved_eb = eb;
    stats->compressed_bytes = out.size();
  }
  return std::move(out).take();
}

/// The shape of the first `lead` planes of `dims` (axis 0 clamped).
Dims leading_planes(const Dims& dims, std::size_t lead) {
  if (lead == 0)
    throw std::invalid_argument("sz14: lead must be at least one plane");
  if (lead >= dims.extent(0)) return dims;
  std::array<std::size_t, kMaxDims> e{};
  std::copy(dims.extents().begin(), dims.extents().end(), e.begin());
  e[0] = lead;
  return Dims(std::span<const std::size_t>(e.data(), dims.rank()));
}

/// Shared decode core.  Exactly one of `fixed_out` (caller-owned buffer,
/// must already match the element count) and `owned_out` (resized only
/// AFTER the entropy stage has validated the stream, so a header claiming
/// absurd extents is rejected before any allocation is attempted) is
/// non-null.
///
/// Only the first `lead` planes along axis 0 are decoded.  Axis 0 is the
/// slowest, every predictor tap reaches back in scan order, and border
/// handling looks at coordinates only, so that prefix decodes exactly like
/// a stream of dims {lead, d1, ...}: the walk runs on those dims and reads
/// only the codes and unpredictable values inside them.  The entropy
/// sections are still consumed and checked against the full header.
template <typename T>
StreamInfo decompress_core(std::span<const std::uint8_t> stream,
                           std::span<T> fixed_out, std::vector<T>* owned_out,
                           const ExecPolicy& exec, std::size_t lead) {
  ByteReader in(stream);
  const StreamHeader h = read_header(in);
  if (h.dtype != dtype_of<T>())
    throw std::runtime_error("sz14: stream dtype mismatch (use decompress" +
                             std::string(h.dtype == kDtypeF64 ? "64" : "") +
                             ")");
  const Dims dims = leading_planes(h.dims, lead);
  if (!owned_out && fixed_out.size() != dims.count())
    throw std::invalid_argument("sz14: output buffer size mismatch");

  // huffman_decode bounds its symbol count by the actual payload size, and
  // rans_decode by the header's element count, so this also caps the
  // allocation a hostile header can trigger.  The code array is the
  // largest decode-side working buffer; the arena keeps it (and the walk's
  // staging vectors) alive across calls.  The entropy backend is read off
  // the stream, never off `exec`.
  std::vector<std::uint16_t> codes_own;
  std::vector<std::uint16_t>& codes =
      scratch_code_vector_or(exec.scratch, codes_own);
  const std::size_t declared =
      h.rans_entropy
          ? rans_decode_into(in, codes, h.dims.count(), dims.count())
          : huffman_decode_into(in, codes, dims.count());
  if (declared != h.dims.count())
    throw std::runtime_error("sz14: quantization array size mismatch");
  const auto n_unpred_bytes = static_cast<std::size_t>(in.get_varint());
  const auto unpred_bytes = in.get_bytes(n_unpred_bytes);

  std::span<T> out = fixed_out;
  if (owned_out) {
    owned_out->resize(dims.count());
    out = std::span<T>(*owned_out);
  }

  const LayerPredictor predictor(dims, h.layers);
  const LinearQuantizer quantizer(h.interval_bits, h.eb_abs);
  const UnpredictableCodecT<T> unpred(h.eb_abs);
  BitReader br(unpred_bytes);
  detail::pq_decompress_walk<T>(codes, dims, predictor, quantizer, unpred,
                                h.decorrelate, out, br, exec.scratch);
  return {dims, h.eb_abs};
}

template <typename T, typename Result>
Result decompress_impl(std::span<const std::uint8_t> stream,
                       const ExecPolicy& exec, std::size_t lead) {
  Result r;
  const StreamInfo info =
      decompress_core<T>(stream, {}, &r.data, exec, lead);
  r.dims = info.dims;
  r.eb_abs = info.eb_abs;
  return r;
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
                            const ExecPolicy& exec, std::size_t lead) {
  return decompress_impl<float, DecompressResult>(stream, exec, lead);
}

DecompressResult64 decompress64(std::span<const std::uint8_t> stream,
                                const ExecPolicy& exec, std::size_t lead) {
  return decompress_impl<double, DecompressResult64>(stream, exec, lead);
}

StreamInfo decompress_into(std::span<const std::uint8_t> stream,
                           std::span<float> out) {
  return decompress_core<float>(stream, out, nullptr, {}, kAllPlanes);
}

StreamInfo decompress_into(std::span<const std::uint8_t> stream,
                           std::span<double> out) {
  return decompress_core<double>(stream, out, nullptr, {}, kAllPlanes);
}

StreamInfo decompress_into(std::span<const std::uint8_t> stream,
                           std::span<float> out, const ExecPolicy& exec) {
  return decompress_core<float>(stream, out, nullptr, exec, kAllPlanes);
}

StreamInfo decompress_into(std::span<const std::uint8_t> stream,
                           std::span<double> out, const ExecPolicy& exec) {
  return decompress_core<double>(stream, out, nullptr, exec, kAllPlanes);
}

}  // namespace sz14
