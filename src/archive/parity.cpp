#include "archive/parity.hpp"

#include <algorithm>

#include "common/checksum.hpp"

namespace sz14::archive {

void xor_into(std::vector<std::uint8_t>& acc,
              std::span<const std::uint8_t> src) {
  if (acc.size() < src.size()) acc.resize(src.size(), 0);
  for (std::size_t i = 0; i < src.size(); ++i) acc[i] ^= src[i];
}

std::vector<std::uint8_t> compute_group_parity(
    std::span<const std::vector<std::uint8_t>> members) {
  std::vector<std::uint8_t> parity;
  for (const auto& m : members) xor_into(parity, m);
  return parity;
}

std::uint32_t payload_crc(const ShardSet& src, std::uint64_t offset,
                          std::uint64_t size) {
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(size));
  src.read_at(offset, buf);
  return crc32(buf);
}

std::optional<std::vector<std::uint8_t>> reconstruct_block_payload(
    const ShardSet& src, const FieldEntry& f, std::size_t bad) {
  if (f.parity_group == 0 || bad >= f.blocks.size()) return std::nullopt;
  const std::size_t g = parity_group_of(bad, f.parity_group);
  if (g >= f.parity.size()) return std::nullopt;
  const ParityGroupEntry& pg = f.parity[g];

  // Start from the parity payload — which must itself verify, otherwise
  // the group already has two damaged members.
  std::vector<std::uint8_t> acc(static_cast<std::size_t>(pg.size));
  src.read_at(pg.offset, acc);
  if (crc32(acc) != pg.crc) return std::nullopt;

  const std::size_t lo = g * f.parity_group;
  const std::size_t hi =
      std::min(lo + f.parity_group, f.blocks.size());
  std::vector<std::uint8_t> member;
  for (std::size_t i = lo; i < hi; ++i) {
    if (i == bad) continue;
    const BlockEntry& b = f.blocks[i];
    member.resize(static_cast<std::size_t>(b.size));
    src.read_at(b.offset, member);
    // A second CRC-failed member means the XOR would blend two unknowns
    // into garbage; refuse rather than mis-repair.
    if (crc32(member) != b.crc) return std::nullopt;
    xor_into(acc, member);
  }

  const BlockEntry& target = f.blocks[bad];
  if (acc.size() < target.size) return std::nullopt;  // malformed index
  acc.resize(static_cast<std::size_t>(target.size));
  // Final gate: the reconstruction must match the stored CRC exactly.
  // This catches the residual case where the "intact" members XOR to
  // something other than the lost payload (e.g. damage that left a
  // member's CRC accidentally valid).
  if (crc32(acc) != target.crc) return std::nullopt;
  return acc;
}

std::optional<std::vector<std::uint8_t>> recompute_group_parity(
    const ShardSet& src, const FieldEntry& f, std::size_t group) {
  if (f.parity_group == 0 || group >= f.parity.size()) return std::nullopt;
  const std::size_t lo = group * f.parity_group;
  const std::size_t hi =
      std::min(lo + f.parity_group, f.blocks.size());
  std::vector<std::uint8_t> acc;
  std::vector<std::uint8_t> member;
  for (std::size_t i = lo; i < hi; ++i) {
    const BlockEntry& b = f.blocks[i];
    member.resize(static_cast<std::size_t>(b.size));
    src.read_at(b.offset, member);
    if (crc32(member) != b.crc) return std::nullopt;
    xor_into(acc, member);
  }
  // The stored parity slot is exactly max-member-size bytes; a recompute
  // that exceeds it means the index is inconsistent — refuse to rewrite.
  if (acc.size() > f.parity[group].size) return std::nullopt;
  // Pad to the stored parity size so the rewrite overwrites every byte of
  // the on-disk parity payload (members can be smaller than the largest).
  acc.resize(static_cast<std::size_t>(f.parity[group].size), 0);
  return acc;
}

}  // namespace sz14::archive
