// FPZIP-class lossless baseline (Lindstrom & Isenburg, TVCG'06 design
// point): Lorenzo prediction from previously coded neighbours, floats
// mapped to sign-magnitude-monotone integers, and the integer residuals
// entropy-coded by bit-length class.  Exactly lossless.
#pragma once

#include "baselines/compressor_iface.hpp"

namespace sz14::baselines {

class Fpzip final : public CompressorBase {
 public:
  [[nodiscard]] std::string name() const override { return "fpzip"; }
  [[nodiscard]] bool lossy() const override { return false; }
  [[nodiscard]] std::vector<std::uint8_t> compress(std::span<const float> data,
                                                   const Dims& dims,
                                                   double eb_abs) override;
  [[nodiscard]] std::vector<float> decompress(
      std::span<const std::uint8_t> stream) override;
};

}  // namespace sz14::baselines
