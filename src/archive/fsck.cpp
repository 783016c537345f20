#include "archive/fsck.hpp"

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "archive/reader.hpp"
#include "archive/scrub.hpp"
#include "archive/shard.hpp"
#include "common/checksum.hpp"

namespace sz14::archive {
namespace {

/// Shard files on disk named like `manifest.s####` that `indexed` does
/// not cover — the leftovers of a crash between a shard roll and the
/// next manifest checkpoint.
std::vector<std::string> find_orphan_shards(
    const std::string& manifest_path, const std::vector<ShardEntry>& indexed) {
  std::vector<std::string> orphans;
  const std::filesystem::path mp(manifest_path);
  const std::string stem = mp.filename().string() + ".s";
  std::error_code ec;
  const auto dir = mp.parent_path().empty() ? std::filesystem::path(".")
                                            : mp.parent_path();
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() < stem.size() + 4 || name.compare(0, stem.size(), stem) ||
        !std::all_of(name.begin() + static_cast<std::ptrdiff_t>(stem.size()),
                     name.end(), [](char c) { return c >= '0' && c <= '9'; }))
      continue;
    if (std::none_of(indexed.begin(), indexed.end(),
                     [&](const ShardEntry& s) { return s.file == name; }))
      orphans.push_back(entry.path().string());
  }
  std::sort(orphans.begin(), orphans.end());
  return orphans;
}

}  // namespace

FsckReport fsck_scan(const std::string& path) {
  FsckReport report;
  report.path = path;

  // Salvage-mode open: throws only when no checkpoint validates at all.
  ArchiveReader reader(path, {.threads = 1, .open = OpenMode::kSalvage});
  const SalvageInfo& info = reader.salvage_info();
  report.file_bytes = info.file_bytes;
  report.consistent_bytes = info.consistent_bytes;
  report.salvage_used = info.fallback;
  report.open_detail = info.detail;
  report.parity_enabled = reader.parity_enabled();
  report.sharded = reader.sharded();
  report.fields_indexed = reader.fields().size();

  // Sharded: every shard file must end exactly where the checkpoint in
  // use says (header + recorded payload bytes) — anything beyond is a
  // crashed writer's unsealed tail, repairable by truncation.  Shard
  // files the checkpoint does not know at all are orphans.
  const ShardSet& src = reader.source();
  if (reader.sharded()) {
    report.shards_indexed = src.part_count();
    for (std::size_t i = 0; i < src.part_count(); ++i) {
      const auto& p = src.part(i);
      const std::uint64_t keep = p.header + p.size;
      if (p.file_bytes > keep)
        report.shard_trailing.push_back(
            FsckShardIssue{p.path, keep, p.file_bytes - keep});
    }
    report.orphan_shards = find_orphan_shards(path, reader.shards());
  }

  // Verify every indexed payload against its stored CRC.  The reader
  // validated the INDEX (footer CRC + block bounds); this pass checks the
  // DATA the index points at, which a footer checksum cannot cover.
  std::vector<std::uint8_t> buf;
  const auto check = [&](std::uint64_t offset, std::uint64_t size,
                         std::uint32_t crc, std::uint32_t& actual) {
    buf.resize(static_cast<std::size_t>(size));
    src.read_at(offset, buf);
    actual = crc32(buf);
    return actual == crc;
  };
  for (const auto& f : reader.fields()) {
    // Per-group damage tally, so the report can say what parity can heal:
    // one bad member per group (data OR parity) is repairable, two are not.
    std::vector<std::size_t> group_bad(f.parity.size(), 0);
    std::size_t field_unrecoverable = 0;
    for (std::size_t i = 0; i < f.blocks.size(); ++i) {
      const auto& b = f.blocks[i];
      ++report.blocks_scanned;
      std::uint32_t actual = 0;
      if (check(b.offset, b.size, b.crc, actual)) continue;
      report.bad_blocks.push_back(
          {f.name, false, i, b.offset, b.size, b.crc, actual});
      if (f.parity_group == 0)
        ++field_unrecoverable;  // no parity: this data is simply lost
      else
        ++group_bad[i / f.parity_group];
    }
    for (std::size_t g = 0; g < f.parity.size(); ++g) {
      const auto& p = f.parity[g];
      ++report.parity_scanned;
      std::uint32_t actual = 0;
      if (check(p.offset, p.size, p.crc, actual)) continue;
      report.bad_parity.push_back(
          {f.name, true, g, p.offset, p.size, p.crc, actual});
      ++group_bad[g];
    }
    for (const std::size_t bad : group_bad)
      if (bad >= 2) field_unrecoverable += bad;
    report.unrecoverable_payloads += field_unrecoverable;
  }
  return report;
}

FsckReport fsck_repair(const std::string& path) {
  FsckReport report = fsck_scan(path);
  std::size_t blocks_repaired = 0;
  std::size_t parity_rebuilt = 0;
  std::size_t shards_truncated = 0;
  std::size_t orphans_removed = 0;
  bool truncated = false;

  if (report.consistent_bytes != report.file_bytes) {
    // Cut the container/manifest back to the newest valid checkpoint;
    // the (possibly torn) bytes behind it are exactly what a crashed
    // writer left unsealed.
    std::error_code ec;
    std::filesystem::resize_file(path, report.consistent_bytes, ec);
    if (ec)
      throw std::runtime_error("fsck: cannot truncate " + path + " to " +
                               std::to_string(report.consistent_bytes) +
                               " bytes: " + ec.message());
    truncated = true;
  }
  // Per-shard truncation: drop torn payload tails the checkpoint in use
  // never sealed, so every shard ends exactly where its table entry says.
  for (const auto& s : report.shard_trailing) {
    std::error_code ec;
    std::filesystem::resize_file(s.path, s.keep_bytes, ec);
    if (ec)
      throw std::runtime_error("fsck: cannot truncate shard " + s.path +
                               " to " + std::to_string(s.keep_bytes) +
                               " bytes: " + ec.message());
    ++shards_truncated;
  }
  for (const auto& orphan : report.orphan_shards) {
    std::error_code ec;
    std::filesystem::remove(orphan, ec);
    if (ec)
      throw std::runtime_error("fsck: cannot remove orphan shard " + orphan +
                               ": " + ec.message());
    ++orphans_removed;
  }

  // Heal CRC-damaged payloads in place through the shared parity engine
  // (scrub.hpp): reconstruct + rewrite + re-verify, refusing any group
  // with two damaged members.
  if (!report.bad_blocks.empty() || !report.bad_parity.empty()) {
    const HealOutcome healed = heal_damaged_payloads(path);
    blocks_repaired = healed.blocks_repaired;
    parity_rebuilt = healed.parity_rebuilt;
  }

  // Re-scan so the returned report describes the REPAIRED file.
  report = fsck_scan(path);
  report.truncated = truncated;
  report.shards_truncated = shards_truncated;
  report.orphans_removed = orphans_removed;
  report.blocks_repaired = blocks_repaired;
  report.parity_rebuilt = parity_rebuilt;
  if (report.salvage_used || report.needs_truncate())
    throw std::runtime_error(
        "fsck: " + path + " still inconsistent after truncation (" +
        report.open_detail + ")");
  return report;
}

std::string format_fsck_report(const FsckReport& report) {
  std::ostringstream os;
  os << report.path << ": " << report.file_bytes << " bytes, "
     << report.fields_indexed << " field(s), " << report.blocks_scanned
     << " block(s)";
  if (report.sharded)
    os << " across " << report.shards_indexed << " shard(s)";
  if (report.parity_enabled)
    os << " + " << report.parity_scanned << " parity payload(s)";
  os << " scanned\n";
  if (report.salvage_used)
    os << "  strict open FAILED (" << report.open_detail
       << "); salvaged checkpoint at byte " << report.consistent_bytes
       << "\n";
  if (report.consistent_bytes != report.file_bytes)
    os << "  " << (report.file_bytes - report.consistent_bytes)
       << " trailing byte(s) beyond the last checkpoint"
       << " (unsealed write; --repair truncates)\n";
  for (const auto& s : report.shard_trailing)
    os << "  shard " << s.path << ": " << s.trailing
       << " trailing byte(s) beyond the recorded payload"
       << " (unsealed write; --repair truncates)\n";
  for (const auto& orphan : report.orphan_shards)
    os << "  orphan shard " << orphan
       << " not indexed by any checkpoint (--repair removes)\n";
  for (const auto& bad : report.bad_blocks) {
    os << "  CORRUPT block " << bad.block << " of field '" << bad.field
       << "' at offset " << bad.offset << " (" << bad.size
       << " bytes): stored crc " << bad.crc_stored << ", actual "
       << bad.crc_actual
       << (report.parity_enabled
               ? " (--repair heals what parity covers)"
               : " (no parity; not repairable — restore from source)")
       << "\n";
  }
  for (const auto& bad : report.bad_parity) {
    os << "  CORRUPT parity group " << bad.block << " of field '"
       << bad.field << "' at offset " << bad.offset << " (" << bad.size
       << " bytes): stored crc " << bad.crc_stored << ", actual "
       << bad.crc_actual << " (data intact; --repair rebuilds parity)\n";
  }
  if (report.unrecoverable_payloads > 0)
    os << "  UNRECOVERABLE: " << report.unrecoverable_payloads
       << " payload(s) beyond single-parity repair\n";
  if (report.truncated)
    os << "  repaired: truncated to " << report.consistent_bytes
       << " bytes\n";
  if (report.shards_truncated > 0 || report.orphans_removed > 0)
    os << "  repaired: " << report.shards_truncated
       << " shard(s) truncated, " << report.orphans_removed
       << " orphan shard(s) removed\n";
  if (report.blocks_repaired > 0 || report.parity_rebuilt > 0)
    os << "  repaired: " << report.blocks_repaired
       << " data payload(s) healed from parity, " << report.parity_rebuilt
       << " parity payload(s) rebuilt\n";
  if (report.clean())
    os << "  clean\n";
  return os.str();
}

}  // namespace sz14::archive
