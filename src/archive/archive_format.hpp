// On-disk layout of the SZA block-sharded archive container.
//
//   [superblock: magic u32 | version u8 | flags u8 | reserved u16]   8 bytes
//   [block payloads, appended field by field ...]
//   [footer: field table + block index, see below]
//   [trailer: footer_size u64 | footer_crc32 u32 | footer magic u32] 16 bytes
//
// The footer lives at the END of the file so writes are strictly
// append-only (`append_field()` never rewrites earlier bytes); a reader
// seeks to the trailer, validates the footer checksum, and then has an
// O(1)-per-block index: absolute offset, payload size, CRC-32, codec id,
// and a min/max value summary for every block of every field.
//
// Footer, per field (ByteWriter little-endian primitives):
//   name string | dtype u8 | codec u8 | eb_abs f64 |
//   dims | block_dims | block_count varint |
//   per block: offset varint | size varint | crc32 u32 | min f64 | max f64
//
// Parity (opt-in; superblock flag kFlagParity): blocks are grouped into
// fixed-size parity groups and each group gets one XOR parity payload —
// the XOR of its member payloads zero-padded to the largest member — so
// any ONE damaged member (data or parity) can be reconstructed from the
// rest.  When the flag is set, every field record is followed by:
//   parity_group varint |                        (0 = this field unprotected)
//   if parity_group > 0: per group: offset varint | size varint | crc32 u32
// Parity-off archives carry flag 0 and emit NO parity bytes anywhere, so
// they stay byte-identical to the pre-parity format.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytebuffer.hpp"
#include "common/dims.hpp"

namespace sz14::archive {

inline constexpr std::uint32_t kArchiveMagic = 0x31'41'5A'53u;  // "SZA1"
inline constexpr std::uint32_t kFooterMagic = 0x46'41'5A'53u;   // "SZAF"
inline constexpr std::uint8_t kArchiveVersion = 1;
inline constexpr std::size_t kSuperblockSize = 8;
inline constexpr std::size_t kTrailerSize = 16;

/// Superblock flag: the footer carries per-field parity sections.
inline constexpr std::uint8_t kFlagParity = 0x01;

/// Data blocks per parity group when parity is enabled without an explicit
/// group size (16 data + 1 XOR parity block = 6.25% space overhead).
inline constexpr std::uint32_t kDefaultParityGroup = 16;

/// Index record for one compressed block (row-major position in the grid
/// is implicit: entry i describes block i).
struct BlockEntry {
  std::uint64_t offset = 0;  ///< absolute file offset of the payload
  std::uint64_t size = 0;    ///< payload bytes
  std::uint32_t crc = 0;     ///< CRC-32 of the payload
  double min = 0.0;          ///< value summary of the source block
  double max = 0.0;
};

/// Index record for one parity group's XOR payload.
struct ParityGroupEntry {
  std::uint64_t offset = 0;  ///< absolute file offset of the parity payload
  std::uint64_t size = 0;    ///< parity bytes (largest member payload size)
  std::uint32_t crc = 0;     ///< CRC-32 of the parity payload
};

/// Index record for one named field.
struct FieldEntry {
  std::string name;
  std::uint8_t dtype = 0;  ///< core/format kDtypeF32 / kDtypeF64
  std::uint8_t codec = 0;  ///< archive/codec.hpp id
  double eb_abs = 0.0;     ///< bound the lossy blocks were written with
  Dims dims;               ///< field shape
  Dims block_dims;         ///< nominal block shape (edge blocks clipped)
  std::vector<BlockEntry> blocks;
  std::uint32_t parity_group = 0;  ///< data blocks per group (0 = no parity)
  std::vector<ParityGroupEntry> parity;  ///< one entry per group

  [[nodiscard]] std::uint64_t payload_bytes() const noexcept {
    std::uint64_t n = 0;
    for (const auto& b : blocks) n += b.size;
    return n;
  }
};

void write_superblock(ByteWriter& out, std::uint8_t flags = 0);

/// Returns the superblock flags.  Throws std::runtime_error on bad magic,
/// unsupported version, or unknown flag bits (a parity-unaware build must
/// fail loudly on a parity archive, not misparse its footer).
std::uint8_t read_superblock(ByteReader& in);

void write_footer(const std::vector<FieldEntry>& fields, ByteWriter& out,
                  std::uint8_t flags = 0);

/// Parses footer bytes (not including the trailer); `flags` is the
/// superblock flags byte, which gates the per-field parity section.
/// Throws std::runtime_error on malformed input, duplicate field names,
/// unknown codec ids, a block count that does not match the field's grid,
/// or a parity group count that does not match the block count.
std::vector<FieldEntry> read_footer(ByteReader& in, std::uint8_t flags = 0);

}  // namespace sz14::archive
