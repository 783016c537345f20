#include "core/format.hpp"

#include <array>
#include <cmath>
#include <stdexcept>

#include "core/predictor.hpp"

namespace sz14 {

void write_dims(const Dims& dims, ByteWriter& out) {
  out.put<std::uint8_t>(static_cast<std::uint8_t>(dims.rank()));
  for (std::size_t a = 0; a < dims.rank(); ++a)
    out.put_varint(dims.extent(a));
}

Dims read_dims(ByteReader& in) {
  const auto rank = in.get<std::uint8_t>();
  if (rank == 0 || rank > kMaxDims)
    throw std::runtime_error("sz14: bad rank " + std::to_string(rank));
  std::array<std::size_t, kMaxDims> ext{};
  for (std::size_t a = 0; a < rank; ++a)
    ext[a] = static_cast<std::size_t>(in.get_varint());
  try {
    return Dims(std::span<const std::size_t>(ext.data(), rank));
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("sz14: malformed dims: ") + e.what());
  }
}

void write_header(const StreamHeader& h, ByteWriter& out) {
  out.put<std::uint32_t>(kMagic);
  out.put<std::uint8_t>(kFormatVersion);
  out.put<std::uint8_t>(h.dtype);
  out.put<std::uint8_t>(static_cast<std::uint8_t>(
      (h.decorrelate ? kFlagDecorrelate : 0) |
      (h.entropy == EntropyBackend::kRans ? kFlagRansEntropy : 0)));
  write_dims(h.dims, out);
  out.put<double>(h.eb_abs);
  out.put<std::uint8_t>(h.interval_bits);
  out.put<std::uint8_t>(h.layers);
}

StreamHeader read_header(ByteReader& in) {
  if (in.get<std::uint32_t>() != kMagic)
    throw std::runtime_error("sz14: bad magic (not an SZ14 stream)");
  const auto version = in.get<std::uint8_t>();
  if (version != kFormatVersion)
    throw std::runtime_error("sz14: unsupported format version " +
                             std::to_string(version));
  StreamHeader h;
  h.dtype = in.get<std::uint8_t>();
  if (h.dtype != kDtypeF32 && h.dtype != kDtypeF64)
    throw std::runtime_error("sz14: unsupported dtype " +
                             std::to_string(h.dtype));
  const auto flags = in.get<std::uint8_t>();
  if (flags & ~(kFlagDecorrelate | kFlagRansEntropy))
    throw std::runtime_error("sz14: unknown header flags");
  h.decorrelate = (flags & kFlagDecorrelate) != 0;
  h.entropy = flags & kFlagRansEntropy ? EntropyBackend::kRans
                                       : EntropyBackend::kHuffman;
  h.dims = read_dims(in);
  h.eb_abs = in.get<double>();
  h.interval_bits = in.get<std::uint8_t>();
  h.layers = in.get<std::uint8_t>();
  check_codec_params(h.eb_abs, h.interval_bits, h.layers);
  return h;
}

void check_codec_params(double eb, unsigned interval_bits, unsigned layers) {
  if (interval_bits < 2 || interval_bits > 16)
    throw std::runtime_error("sz14: interval bits outside [2, 16]");
  if (layers == 0 || layers > kMaxLayers)
    throw std::runtime_error("sz14: layer count outside [1, kMaxLayers]");
  if (!std::isfinite(eb) || eb < 0.0)
    throw std::runtime_error("sz14: error bound not finite and >= 0");
}

}  // namespace sz14
