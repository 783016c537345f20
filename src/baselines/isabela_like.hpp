// ISABELA-class lossy baseline (Lakshminarasimhan et al., CC:PE'13 design
// point): per window, values are sorted into a monotone curve that is easy
// to fit, the sort permutation is stored explicitly (the defining overhead
// — ceil(log2 W) bits per value — that caps ISABELA's compression factor
// around 1.2-1.4), the monotone curve is approximated by a piecewise-linear
// fit over K knots, and per-point residuals are quantized to the error
// bound so the codec stays error-bounded.
#pragma once

#include "baselines/compressor_iface.hpp"

namespace sz14::baselines {

class Isabela final : public CompressorBase {
 public:
  /// Defaults follow the reference implementation's regime: 1024-point
  /// windows (10 index bits/value — the overhead that pins ISABELA's CF
  /// near 1.2-1.4 in the paper) and a sparse knot set.
  explicit Isabela(std::size_t window = 1024, std::size_t knots = 10)
      : window_(window), knots_(knots) {}

  [[nodiscard]] std::string name() const override { return "isabela"; }
  [[nodiscard]] bool lossy() const override { return true; }
  [[nodiscard]] std::vector<std::uint8_t> compress(std::span<const float> data,
                                                   const Dims& dims,
                                                   double eb_abs) override;
  [[nodiscard]] std::vector<float> decompress(
      std::span<const std::uint8_t> stream) override;

 private:
  std::size_t window_;
  std::size_t knots_;
};

}  // namespace sz14::baselines
