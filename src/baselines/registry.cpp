#include "baselines/registry.hpp"

#include <stdexcept>

#include "baselines/fpzip_like.hpp"
#include "baselines/gzip_like.hpp"
#include "baselines/isabela_like.hpp"
#include "baselines/sz11.hpp"
#include "baselines/zfp_like.hpp"

namespace sz14::baselines {

std::vector<std::uint8_t> Sz14Codec::compress(std::span<const float> data,
                                              const Dims& dims,
                                              double eb_abs) {
  Options opts;
  opts.eb_abs = eb_abs;
  opts.interval_bits = interval_bits_;
  opts.layers = layers_;
  return sz14::compress(data, dims, opts, &stats_);
}

std::vector<float> Sz14Codec::decompress(
    std::span<const std::uint8_t> stream) {
  return sz14::decompress(stream).data;
}

namespace {

// Operations-table registry (one row per codec), so the factory, the
// paper-order sweep, and the name listing are driven from one place.
struct Factory {
  const char* name;
  bool in_paper_sweep;  // appears in make_all_compressors() (Fig. 6 order)
  std::unique_ptr<CompressorBase> (*make)();
};

const Factory kFactories[] = {
    {"sz14", true, [] { return std::unique_ptr<CompressorBase>(std::make_unique<Sz14Codec>()); }},
    {"zfp", true, [] { return std::unique_ptr<CompressorBase>(std::make_unique<Zfp>()); }},
    {"sz11", true, [] { return std::unique_ptr<CompressorBase>(std::make_unique<Sz11>()); }},
    {"isabela", true, [] { return std::unique_ptr<CompressorBase>(std::make_unique<Isabela>()); }},
    {"fpzip", true, [] { return std::unique_ptr<CompressorBase>(std::make_unique<Fpzip>()); }},
    {"gzip", true, [] { return std::unique_ptr<CompressorBase>(std::make_unique<Gzip>()); }},
    {"zfp-rate", false, [] {
       return std::unique_ptr<CompressorBase>(
           std::make_unique<Zfp>(Zfp::Mode::kFixedRate));
     }},
};

}  // namespace

std::vector<std::unique_ptr<CompressorBase>> make_all_compressors() {
  std::vector<std::unique_ptr<CompressorBase>> v;
  for (const auto& f : kFactories)
    if (f.in_paper_sweep) v.push_back(f.make());
  return v;
}

std::unique_ptr<CompressorBase> make_compressor(const std::string& name) {
  for (const auto& f : kFactories)
    if (name == f.name) return f.make();
  throw std::invalid_argument("unknown compressor: " + name);
}

std::vector<std::string> compressor_names() {
  std::vector<std::string> names;
  for (const auto& f : kFactories) names.emplace_back(f.name);
  return names;
}

}  // namespace sz14::baselines
