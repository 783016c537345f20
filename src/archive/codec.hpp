// Pluggable block-codec backend for the SZA archive container, following
// the CCID operations-table idiom (one static row of function pointers per
// codec, looked up by a stable numeric id carried in the footer index).
//
// Every block of every field is compressed independently through one of
// these backends, so a single container can mix error-bounded lossy fields
// (sz14, zfp_like) with exactly-lossless ones (fpzip_like, gzip_like).
// The numeric ids are on-disk format: never renumber, only append.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/dims.hpp"
#include "common/exec_policy.hpp"

namespace sz14::archive {

/// Stable on-disk codec identifiers (footer `codec_id` byte).
inline constexpr std::uint8_t kCodecSz14 = 1;
inline constexpr std::uint8_t kCodecZfp = 2;
inline constexpr std::uint8_t kCodecFpzip = 3;
inline constexpr std::uint8_t kCodecGzip = 4;

/// Operations table row.  `compress64`/`decompress64` are null for backends
/// without a double-precision path; the writer rejects f64 fields for them.
/// Both directions receive the caller's ExecPolicy (per-call hot-path mode +
/// scratch arena — the sz14 backend honors both; the baseline backends
/// accept and ignore it).  Execution policy never reaches the on-disk
/// format: compressed bytes and decoded values are policy-independent
/// (modulo kTurbo's explicit compress-side bit-identity trade), so scratch
/// and pool choices are invisible in the data.
///
/// A decompress op decodes the leading box `box` of the block (LeadBox;
/// the archive reader passes the box its region needs).  It returns the
/// box's planes along axis 0, exactly min(box[0], extent(0)) x (other
/// extents of `block_dims`) values, row-major, with every value inside
/// the box bit-identical to the whole block's decode (any box covering
/// the block is the whole block).  sz14 decodes only the box and leaves
/// the rest of its planes zero; the baseline backends decode in full and
/// truncate to the box's planes.  A stream whose decoded size does not
/// match `block_dims` is returned untruncated, so the caller's size check
/// still sees the mismatch.
struct CodecOps {
  std::uint8_t id;
  const char* name;
  bool lossy;

  std::vector<std::uint8_t> (*compress32)(std::span<const float> block,
                                          const Dims& block_dims,
                                          double eb_abs,
                                          const ExecPolicy& exec);
  std::vector<float> (*decompress32)(std::span<const std::uint8_t> stream,
                                     const Dims& block_dims,
                                     const LeadBox& box,
                                     const ExecPolicy& exec);

  std::vector<std::uint8_t> (*compress64)(std::span<const double> block,
                                          const Dims& block_dims,
                                          double eb_abs,
                                          const ExecPolicy& exec);
  std::vector<double> (*decompress64)(std::span<const std::uint8_t> stream,
                                      const Dims& block_dims,
                                      const LeadBox& box,
                                      const ExecPolicy& exec);
};

/// All registered codecs, id-ascending.
std::span<const CodecOps> codec_table() noexcept;

/// Lookup by on-disk id; nullptr when unknown.
const CodecOps* codec_by_id(std::uint8_t id) noexcept;

/// Lookup by name ("sz14", "zfp_like", "fpzip_like", "gzip_like");
/// nullptr when unknown.
const CodecOps* codec_by_name(std::string_view name) noexcept;

}  // namespace sz14::archive
