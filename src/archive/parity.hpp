// XOR block-group parity for SZA archives: the erasure math shared by the
// writer (compute a group's parity payload at append time), the reader
// (read-repair a CRC-failed block on the fly), and fsck/scrub (heal a
// damaged payload in place).
//
// The scheme is deliberately minimal — RAID-4-style single parity per
// group of `parity_group` consecutive blocks of one field.  The parity
// payload is the byte-wise XOR of the member payloads, each zero-padded to
// the size of the largest member, so reconstruction of one lost member is
// XOR of the parity with every OTHER member, truncated to the lost
// member's stored size.  Every reconstruction is verified against the
// member's stored CRC-32 before it is trusted: two damaged members in one
// group can never be silently mis-repaired — the attempt simply fails.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "archive/archive_format.hpp"
#include "archive/shard.hpp"

namespace sz14::archive {

/// Number of parity groups for `blocks` data blocks at group size `group`.
[[nodiscard]] constexpr std::size_t parity_group_count(
    std::size_t blocks, std::uint32_t group) noexcept {
  return group == 0 ? 0 : (blocks + group - 1) / group;
}

/// Parity group that block `block` of a parity-enabled field belongs to.
[[nodiscard]] constexpr std::size_t parity_group_of(
    std::size_t block, std::uint32_t group) noexcept {
  return block / group;
}

/// acc ^= src, growing acc (zero-padded) to cover src.
void xor_into(std::vector<std::uint8_t>& acc,
              std::span<const std::uint8_t> src);

/// XOR parity payload of one group of member payloads (writer side).
[[nodiscard]] std::vector<std::uint8_t> compute_group_parity(
    std::span<const std::vector<std::uint8_t>> members);

/// CRC-32 of the `size` payload bytes at logical `offset`.
[[nodiscard]] std::uint32_t payload_crc(const ShardSet& src,
                                        std::uint64_t offset,
                                        std::uint64_t size);

/// Reconstruct the payload of data block `bad` of `f` from its parity
/// group: XOR the group's parity payload with every OTHER member, truncate
/// to the bad block's stored size, and verify the result against the bad
/// block's stored CRC-32.  Returns nullopt when the field has no parity,
/// any other member or the parity payload fails ITS stored CRC (a second
/// damaged member — unrecoverable), or the reconstruction does not verify.
[[nodiscard]] std::optional<std::vector<std::uint8_t>>
reconstruct_block_payload(const ShardSet& src, const FieldEntry& f,
                          std::size_t bad);

/// Recompute the parity payload of group `group` of `f` from its data
/// members (the parity-damage heal path).  Returns nullopt when any data
/// member fails its stored CRC — parity cannot be rebuilt over bad data.
[[nodiscard]] std::optional<std::vector<std::uint8_t>>
recompute_group_parity(const ShardSet& src, const FieldEntry& f,
                       std::size_t group);

}  // namespace sz14::archive
