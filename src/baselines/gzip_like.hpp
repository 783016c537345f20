// GZIP-class lossless baseline: the float array's bytes through the
// deflate-like LZ77+Huffman pipeline.  Scientific float data has little
// byte-level redundancy, which is exactly why the paper's GZIP column sits
// at CF ~1.1-1.3.
#pragma once

#include "baselines/compressor_iface.hpp"

namespace sz14::baselines {

class Gzip final : public CompressorBase {
 public:
  [[nodiscard]] std::string name() const override { return "gzip"; }
  [[nodiscard]] bool lossy() const override { return false; }
  [[nodiscard]] std::vector<std::uint8_t> compress(std::span<const float> data,
                                                   const Dims& dims,
                                                   double eb_abs) override;
  [[nodiscard]] std::vector<float> decompress(
      std::span<const std::uint8_t> stream) override;
};

}  // namespace sz14::baselines
