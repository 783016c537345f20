#include "archive/codec.hpp"

#include <cstring>

#include "baselines/fpzip_like.hpp"
#include "baselines/gzip_like.hpp"
#include "baselines/zfp_like.hpp"
#include "core/compressor.hpp"
#include "encoding/deflate_like.hpp"

namespace sz14::archive {
namespace {

/// The box contract for backends that can only decode a whole block:
/// drop the planes past the box's last one.
template <typename T>
std::vector<T> leading_planes(std::vector<T> values, const Dims& block_dims,
                              const LeadBox& box) {
  if (box[0] < block_dims.extent(0) && values.size() == block_dims.count())
    values.resize(box[0] * (block_dims.count() / block_dims.extent(0)));
  return values;
}

// --- sz14: native f32 and f64 error-bounded paths ------------------------
//
// These run the full specialized kernel stack under the caller's per-call
// ExecPolicy: an ArchiveWriter whose policy selects the rANS backend
// writes every block's code section with it (flagged in each block's
// stream header).  Decoding follows the stream whatever policy wrote the
// block, so the decode hooks take no policy.

std::vector<std::uint8_t> sz14_c32(std::span<const float> block,
                                   const Dims& dims, double eb_abs,
                                   const ExecPolicy& exec) {
  Options opts;
  opts.eb_abs = eb_abs;
  opts.exec = exec;
  return compress(block, dims, opts);
}

std::vector<float> sz14_d32(std::span<const std::uint8_t> stream,
                            const Dims& /*block_dims*/, const LeadBox& box) {
  return decompress(stream, box).data;
}

std::vector<std::uint8_t> sz14_c64(std::span<const double> block,
                                   const Dims& dims, double eb_abs,
                                   const ExecPolicy& exec) {
  Options opts;
  opts.eb_abs = eb_abs;
  opts.exec = exec;
  return compress(block, dims, opts);
}

std::vector<double> sz14_d64(std::span<const std::uint8_t> stream,
                             const Dims& /*block_dims*/,
                             const LeadBox& box) {
  return decompress64(stream, box).data;
}

// --- zfp_like / fpzip_like: f32 through the baseline classes --------------

std::vector<std::uint8_t> zfp_c32(std::span<const float> block,
                                  const Dims& dims, double eb_abs,
                                  const ExecPolicy& /*exec*/) {
  return baselines::Zfp().compress(block, dims, eb_abs);
}

std::vector<float> zfp_d32(std::span<const std::uint8_t> stream,
                           const Dims& block_dims, const LeadBox& box) {
  return leading_planes(baselines::Zfp().decompress(stream),
                        block_dims, box);
}

std::vector<std::uint8_t> fpzip_c32(std::span<const float> block,
                                    const Dims& dims, double eb_abs,
                                    const ExecPolicy& /*exec*/) {
  return baselines::Fpzip().compress(block, dims, eb_abs);
}

std::vector<float> fpzip_d32(std::span<const std::uint8_t> stream,
                             const Dims& block_dims, const LeadBox& box) {
  return leading_planes(baselines::Fpzip().decompress(stream),
                        block_dims, box);
}

// --- gzip_like: f32 via the baseline class, f64 as raw deflated bytes -----

std::vector<std::uint8_t> gzip_c32(std::span<const float> block,
                                   const Dims& dims, double eb_abs,
                                   const ExecPolicy& /*exec*/) {
  return baselines::Gzip().compress(block, dims, eb_abs);
}

std::vector<float> gzip_d32(std::span<const std::uint8_t> stream,
                            const Dims& block_dims, const LeadBox& box) {
  return leading_planes(baselines::Gzip().decompress(stream),
                        block_dims, box);
}

std::vector<std::uint8_t> gzip_c64(std::span<const double> block,
                                   const Dims& /*dims*/, double /*eb_abs*/,
                                   const ExecPolicy& /*exec*/) {
  return deflate_like_compress(
      {reinterpret_cast<const std::uint8_t*>(block.data()),
       block.size() * sizeof(double)});
}

std::vector<double> gzip_d64(std::span<const std::uint8_t> stream,
                             const Dims& block_dims, const LeadBox& box) {
  const auto bytes = deflate_like_decompress(stream);
  if (bytes.size() % sizeof(double) != 0)
    throw std::runtime_error("archive: gzip_like f64 payload not 8-aligned");
  std::vector<double> values(bytes.size() / sizeof(double));
  std::memcpy(values.data(), bytes.data(), bytes.size());
  return leading_planes(std::move(values), block_dims, box);
}

constexpr CodecOps kCodecs[] = {
    {kCodecSz14, "sz14", true, sz14_c32, sz14_d32, sz14_c64, sz14_d64},
    {kCodecZfp, "zfp_like", true, zfp_c32, zfp_d32, nullptr, nullptr},
    {kCodecFpzip, "fpzip_like", false, fpzip_c32, fpzip_d32, nullptr, nullptr},
    {kCodecGzip, "gzip_like", false, gzip_c32, gzip_d32, gzip_c64, gzip_d64},
};

}  // namespace

std::span<const CodecOps> codec_table() noexcept { return kCodecs; }

const CodecOps* codec_by_id(std::uint8_t id) noexcept {
  for (const auto& c : kCodecs)
    if (c.id == id) return &c;
  return nullptr;
}

const CodecOps* codec_by_name(std::string_view name) noexcept {
  for (const auto& c : kCodecs)
    if (name == c.name) return &c;
  return nullptr;
}

}  // namespace sz14::archive
