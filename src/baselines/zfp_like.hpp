// ZFP-class lossy baseline (Lindstrom, TVCG'14 design point), built from
// scratch: the data is cut into 4^d blocks; each block is aligned to a
// common exponent and cast to a block-local fixed-point lattice, run
// through a separable reversible integer wavelet (Haar lifting), and the
// coefficients are embedded-bit-plane coded in sequency order.
//
// Two modes, matching how the paper exercises ZFP:
//   kAccuracy  — encode down to the plane implied by an absolute tolerance.
//                Deliberately conservative (guard bits for the inverse-
//                transform error amplification), which reproduces the
//                paper's Table V observation that ZFP's real max error sits
//                well below the user bound.  And because the fixed-point
//                cast error is 2^(emax-29) per block, a block whose value
//                range is huge cannot honour a tiny tolerance — the
//                CDNUMC-style bound violation of Sec. V-A emerges naturally.
//   kFixedRate — truncate every block's embedded stream at exactly
//                `rate * 4^d` bits: the fixed-bit-rate mode the paper uses
//                for the rate-distortion study (Fig. 8).
#pragma once

#include "baselines/compressor_iface.hpp"

namespace sz14::baselines {

class Zfp final : public CompressorBase {
 public:
  enum class Mode { kAccuracy, kFixedRate };

  explicit Zfp(Mode mode = Mode::kAccuracy, double rate_bits_per_value = 8.0)
      : mode_(mode), rate_(rate_bits_per_value) {}

  [[nodiscard]] std::string name() const override { return "zfp"; }
  [[nodiscard]] bool lossy() const override { return true; }

  /// In kAccuracy mode `eb_abs` is the tolerance; in kFixedRate mode it is
  /// ignored and the configured rate applies.
  [[nodiscard]] std::vector<std::uint8_t> compress(std::span<const float> data,
                                                   const Dims& dims,
                                                   double eb_abs) override;
  [[nodiscard]] std::vector<float> decompress(
      std::span<const std::uint8_t> stream) override;

  [[nodiscard]] Mode mode() const noexcept { return mode_; }
  [[nodiscard]] double rate() const noexcept { return rate_; }

 private:
  Mode mode_;
  double rate_;
};

}  // namespace sz14::baselines
