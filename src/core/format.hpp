// On-stream container format for the SZ-1.4 codec.
//
//   magic 'SZ14' | version u8 | dtype u8 (0 = f32, 1 = f64) | flags u8 |
//   rank u8 | extents varint * rank | eb_abs f64 | interval_bits u8 |
//   layers u8
//
// followed by the entropy-coded quantization array — the seed-default
// Huffman section, or, when kFlagRansEntropy is set, the rANS section
// (encoding/rans.hpp, its own "RANS" magic) — and the bit-packed
// unpredictable payload (see compressor.cpp).  Readers that predate the
// rANS backend reject flagged streams cleanly via the unknown-flags check.
#pragma once

#include <cstdint>

#include "common/bytebuffer.hpp"
#include "common/dims.hpp"
#include "common/exec_policy.hpp"

namespace sz14 {

inline constexpr std::uint32_t kMagic = 0x53'5A'31'34u;  // "SZ14"
inline constexpr std::uint8_t kFormatVersion = 2;
inline constexpr std::uint8_t kDtypeF32 = 0;
inline constexpr std::uint8_t kDtypeF64 = 1;
inline constexpr std::uint8_t kFlagDecorrelate = 1;
inline constexpr std::uint8_t kFlagRansEntropy = 2;

struct StreamHeader {
  Dims dims;
  double eb_abs = 0.0;
  std::uint8_t dtype = kDtypeF32;
  std::uint8_t interval_bits = 8;
  std::uint8_t layers = 1;
  bool decorrelate = false;
  /// Entropy coder of the quantization codes (kFlagRansEntropy).
  EntropyBackend entropy = EntropyBackend::kHuffman;
};

void write_header(const StreamHeader& h, ByteWriter& out);

/// Throws std::runtime_error on bad magic/version/dtype, malformed dims or
/// codec parameters out of range (check_codec_params).
StreamHeader read_header(ByteReader& in);

/// The one check of the codec parameters a stream header carries (SZ14
/// here, SZP3 in parallel/parallel_codec): throws std::runtime_error unless
/// m is in [2, 16], layers in [1, kMaxLayers] and eb is finite and >= 0.
/// compress() never writes anything else.
void check_codec_params(double eb, unsigned interval_bits, unsigned layers);

/// Shared shape serialization (rank u8 + extents varint * rank), used by the
/// stream header above and by the archive container footer.
void write_dims(const Dims& dims, ByteWriter& out);

/// Throws std::runtime_error on rank 0, rank > kMaxDims, or overflowing
/// extents.
Dims read_dims(ByteReader& in);

}  // namespace sz14
