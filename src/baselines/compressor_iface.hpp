// Uniform interface over all compressors in the evaluation (paper Sec. V):
// GZIP-, FPZIP-, ZFP-, SZ-1.1-, ISABELA-class baselines and SZ-1.4 itself.
// Streams are self-describing (each codec embeds shape + parameters), so
// the benchmark harness can treat them interchangeably.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/dims.hpp"

namespace sz14::baselines {

class CompressorBase {
 public:
  virtual ~CompressorBase() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Lossless codecs ignore `eb_abs`.
  [[nodiscard]] virtual bool lossy() const = 0;

  /// Compress `data` shaped `dims` under absolute bound `eb_abs`.
  [[nodiscard]] virtual std::vector<std::uint8_t> compress(
      std::span<const float> data, const Dims& dims, double eb_abs) = 0;

  /// Decompress a stream this codec produced.  Decoding is exact and
  /// needs no execution policy.
  [[nodiscard]] virtual std::vector<float> decompress(
      std::span<const std::uint8_t> stream) = 0;
};

/// All evaluation codecs in the paper's Fig. 6 order:
/// SZ-1.4, ZFP, SZ-1.1, ISABELA, FPZIP, GZIP.
std::vector<std::unique_ptr<CompressorBase>> make_all_compressors();

/// Factory by name ("sz14", "zfp", "sz11", "isabela", "fpzip", "gzip").
/// Throws std::invalid_argument for unknown names.
std::unique_ptr<CompressorBase> make_compressor(const std::string& name);

/// All names make_compressor() accepts, in registration order.
std::vector<std::string> compressor_names();

}  // namespace sz14::baselines
