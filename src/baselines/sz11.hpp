// SZ-1.1-class lossy baseline (Di & Cappello, IPDPS'16) — the prior system
// the paper improves on.  The array is linearized and every value is
// predicted by the best of three single-dimension curve fits over the
// *preceding decompressed* values:
//   preceding  p = v[i-1]
//   linear     p = 2 v[i-1] -  v[i-2]
//   quadratic  p = 3 v[i-1] - 3 v[i-2] + v[i-3]
// A hit is coded in 2 bits (which fit matched); misses take the same
// binary-representation path as SZ-1.4.  The 2-bit code stream is Huffman
// coded.  Because the prediction is one-dimensional, multidimensional
// correlation is invisible to it — the gap SZ-1.4's Sec. III attacks.
#pragma once

#include "baselines/compressor_iface.hpp"

namespace sz14::baselines {

class Sz11 final : public CompressorBase {
 public:
  [[nodiscard]] std::string name() const override { return "sz11"; }
  [[nodiscard]] bool lossy() const override { return true; }
  [[nodiscard]] std::vector<std::uint8_t> compress(std::span<const float> data,
                                                   const Dims& dims,
                                                   double eb_abs) override;
  [[nodiscard]] std::vector<float> decompress(
      std::span<const std::uint8_t> stream) override;
};

}  // namespace sz14::baselines
