// Adapter exposing the SZ-1.4 core through the baseline interface, so the
// benchmark harness can sweep all six evaluation codecs uniformly.
#pragma once

#include "baselines/compressor_iface.hpp"
#include "core/compressor.hpp"

namespace sz14::baselines {

class Sz14Codec final : public CompressorBase {
 public:
  explicit Sz14Codec(unsigned interval_bits = 8, unsigned layers = 1)
      : interval_bits_(interval_bits), layers_(layers) {}

  [[nodiscard]] std::string name() const override { return "sz14"; }
  [[nodiscard]] bool lossy() const override { return true; }
  [[nodiscard]] std::vector<std::uint8_t> compress(std::span<const float> data,
                                                   const Dims& dims,
                                                   double eb_abs) override;
  [[nodiscard]] std::vector<float> decompress(
      std::span<const std::uint8_t> stream) override;

  /// Stats from the most recent compress() call.
  [[nodiscard]] const CompressStats& last_stats() const noexcept {
    return stats_;
  }

 private:
  unsigned interval_bits_;
  unsigned layers_;
  CompressStats stats_{};
};

}  // namespace sz14::baselines
