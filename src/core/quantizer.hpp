// Error-controlled linear-scaling quantization (the paper's Section IV-A).
//
// 2^m - 1 uniform intervals of width 2*eb are centred on the first-phase
// predicted value.  A point whose real value lands inside an interval is
// "predictable": it is encoded as that interval's code (1 .. 2^m - 1, centre
// code 2^{m-1}) and reconstructed as the interval midpoint, so the pointwise
// error is <= eb by construction.  Code 0 marks unpredictable points, which
// take the binary-representation path instead.
//
// quantize()/reconstruct() are templated over float/double so the same
// quantizer drives both the single- and double-precision pipelines.
#pragma once

#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace sz14 {

/// Quantization decision for one data point.
template <typename T>
struct QuantResultT {
  bool predictable = false;
  std::uint16_t code = 0;  // 0 iff unpredictable
  T reconstructed = 0;     // valid iff predictable
};

using QuantResult = QuantResultT<float>;

class LinearQuantizer {
 public:
  /// `interval_bits` is the paper's m (2 <= m <= 16): 2^m - 1 intervals,
  /// 2^m codes including the unpredictable marker.  `eb` is the absolute
  /// error bound; eb <= 0 degenerates to "everything unpredictable"
  /// (lossless fallback used for zero-range / pathological inputs).
  LinearQuantizer(unsigned interval_bits, double eb)
      : eb_(eb), inv_2eb_(eb > 0.0 ? 1.0 / (2.0 * eb) : 0.0) {
    if (interval_bits < 2 || interval_bits > 16)
      throw std::invalid_argument("LinearQuantizer: m must be in [2, 16]");
    bits_ = interval_bits;
    radius_ = 1u << (interval_bits - 1);
  }

  /// Round half away from zero, exactly as std::llround, for |x| < 2^31.
  /// Inline (truncating cast + exact fractional compare) so the hot loop
  /// avoids the libm call: the cast is exact truncation, and x - trunc(x)
  /// is exact for |x| < 2^52, so the 0.5 comparisons match llround
  /// bit-for-bit on the quantizer's |x| < 2^15 operating range.
  [[nodiscard]] static std::int32_t round_half_away(double x) {
    const auto t = static_cast<std::int32_t>(x);
    const double frac = x - static_cast<double>(t);
    // Branchless on purpose: the fractional part of the scaled offset is
    // close to uniform on real data, so `frac >= 0.5` is a coin-flip branch
    // the predictor cannot learn — as compare-and-add it costs two cycles
    // instead of a mispredict every other point on the hot chain.
    return t + static_cast<std::int32_t>(frac >= 0.5) -
           static_cast<std::int32_t>(frac <= -0.5);
  }

  /// Try to encode `real` against the prediction `pred`.
  template <typename T>
  [[nodiscard]] QuantResultT<T> quantize(T real, double pred) const {
    if (!(eb_ > 0.0) || !std::isfinite(real)) return {};
    const double diff = static_cast<double>(real) - pred;
    const double scaled = diff / (2.0 * eb_);
    if (!(std::fabs(scaled) < static_cast<double>(radius_))) return {};
    const std::int32_t q = round_half_away(scaled);
    if (q <= -static_cast<std::int32_t>(radius_) ||
        q >= static_cast<std::int32_t>(radius_))
      return {};
    const auto recon = static_cast<T>(pred + 2.0 * eb_ * q);
    // Guard against rounding at the interval edge: the *stored* value must
    // satisfy the bound, not just the double intermediate.
    if (!(std::fabs(static_cast<double>(recon) -
                    static_cast<double>(real)) <= eb_))
      return {};
    return {true,
            static_cast<std::uint16_t>(static_cast<std::int32_t>(radius_) + q),
            recon};
  }

  /// Turbo (HotPathMode::kTurbo) decision, the reference implementation of
  /// the arithmetic the turbo kernels run (core/kernels.cpp mirrors it
  /// operation-for-operation): the interval index comes from
  /// `diff * inv_2eb` instead of `diff / (2 * eb)`, and rounding is the
  /// two-op `trunc(x + copysign(0.5, x))` form rather than the exact
  /// compare-based round — both can land the scaled offset one interval
  /// off near boundaries/ties, so the produced code may differ from
  /// quantize()'s.  The result is still bound-conformant: the
  /// reconstruction check below demotes any point whose stored value would
  /// miss the bound (including boundary-straddling ones) to the
  /// unpredictable path, which carries its own |x - x'| <= eb guarantee.
  template <typename T>
  [[nodiscard]] QuantResultT<T> quantize_turbo(T real, double pred) const {
    if (!(eb_ > 0.0) || !std::isfinite(real)) return {};
    const double diff = static_cast<double>(real) - pred;
    const double scaled = diff * inv_2eb_;
    if (!(std::fabs(scaled) < static_cast<double>(radius_))) return {};
    const auto q =
        static_cast<std::int32_t>(scaled + std::copysign(0.5, scaled));
    if (q <= -static_cast<std::int32_t>(radius_) ||
        q >= static_cast<std::int32_t>(radius_))
      return {};
    const auto recon = static_cast<T>(pred + 2.0 * eb_ * q);
    if (!(std::fabs(static_cast<double>(recon) -
                    static_cast<double>(real)) <= eb_))
      return {};
    return {true,
            static_cast<std::uint16_t>(static_cast<std::int32_t>(radius_) + q),
            recon};
  }

  /// Reconstruct a predictable point from its code (1 .. 2^m - 1).
  template <typename T = float>
  [[nodiscard]] T reconstruct(std::uint16_t code, double pred) const {
    const std::int32_t q =
        static_cast<std::int32_t>(code) - static_cast<std::int32_t>(radius_);
    return static_cast<T>(pred + 2.0 * eb_ * q);
  }

  [[nodiscard]] unsigned interval_bits() const noexcept { return bits_; }
  [[nodiscard]] std::uint32_t interval_count() const noexcept {
    return 2 * radius_ - 1;
  }
  [[nodiscard]] std::uint32_t alphabet_size() const noexcept {
    return 2 * radius_;  // codes 0 .. 2^m - 1
  }
  [[nodiscard]] double error_bound() const noexcept { return eb_; }
  /// 1 / (2 * eb), precomputed for the turbo kernels (0 when eb <= 0).
  [[nodiscard]] double inv_interval() const noexcept { return inv_2eb_; }

 private:
  double eb_;
  double inv_2eb_;
  std::uint32_t radius_ = 0;
  unsigned bits_ = 0;
};

}  // namespace sz14
