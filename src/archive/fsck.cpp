#include "archive/fsck.hpp"

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "archive/shard.hpp"

namespace sz14::archive {
namespace {

/// fsck opens at the newest valid checkpoint; only an archive with none
/// at all throws.
const ReaderOptions kSalvageOpen{.threads = 1, .open = OpenMode::kSalvage};

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


/// The structural half of the report against the checkpoint `reader`
/// uses: every shard file must end exactly where that checkpoint says
/// (header + recorded payload bytes) — anything beyond is a crashed
/// writer's unsealed tail, repairable by truncation — and shard files
/// the checkpoint does not know at all are orphans.
void check_structure(const std::string& path, const ArchiveReader& reader,
                     FsckReport& report) {
  report.sharded = reader.sharded();
  if (!report.sharded) return;
  const ShardSet& src = reader.source();
  report.shards_indexed = src.part_count();
  report.shard_trailing.clear();
  for (std::size_t i = 0; i < src.part_count(); ++i) {
    const auto& p = src.part(i);
    const std::uint64_t keep = p.header + p.size;
    if (p.file_bytes > keep)
      report.shard_trailing.push_back(
          FsckShardIssue{p.path, keep, p.file_bytes - keep});
  }
  report.orphan_shards = find_orphan_shards(path, reader.shards());
}

/// Payload scan on the pool's default worker count, plus the structure.
FsckReport scan(const std::string& path, const ArchiveReader& reader) {
  FsckReport report;
  report.scrub = scan_payloads(reader, 0);
  report.scrub.path = path;
  check_structure(path, reader, report);
  return report;
}

}  // namespace

FsckReport fsck_scan(const std::string& path) {
  const ArchiveReader reader(path, kSalvageOpen);
  return scan(path, reader);
}

FsckReport fsck_repair(const std::string& path) {
  const ArchiveReader reader(path, kSalvageOpen);
  FsckReport report = scan(path, reader);
  const SalvageInfo& open = report.scrub.salvage;

  if (open.consistent_bytes != open.file_bytes) {
    // Cut the container/manifest back to the newest valid checkpoint;
    // the (possibly torn) bytes behind it are exactly what a crashed
    // writer left unsealed.
    std::error_code ec;
    std::filesystem::resize_file(path, open.consistent_bytes, ec);
    if (ec)
      throw std::runtime_error("fsck: cannot truncate " + path + " to " +
                               std::to_string(open.consistent_bytes) +
                               " bytes: " + ec.message());
    report.truncated = true;
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
    ++report.shards_truncated;
  }
  for (const auto& orphan : report.orphan_shards) {
    std::error_code ec;
    std::filesystem::remove(orphan, ec);
    if (ec)
      throw std::runtime_error("fsck: cannot remove orphan shard " + orphan +
                               ": " + ec.message());
    ++report.orphans_removed;
  }

  // The cut bytes lie beyond every payload the checkpoint indexes, so the
  // scan's reader still addresses the payloads it found damaged.
  heal_payloads(reader, report.scrub);

  // The heal re-verified what it rewrote; a re-open proves the structure,
  // so the returned report describes the REPAIRED file.
  const ArchiveReader after(path, kSalvageOpen);
  report.scrub.salvage = after.salvage_info();
  check_structure(path, after, report);
  if (report.scrub.salvage.fallback || report.needs_truncate())
    throw std::runtime_error(
        "fsck: " + path + " still inconsistent after truncation (" +
        report.scrub.salvage.detail + ")");
  return report;
}

std::string format_fsck_report(const FsckReport& report) {
  const ScrubReport& scrub = report.scrub;
  std::ostringstream os;
  os << scrub.path << ": " << scrub.salvage.file_bytes << " bytes, "
     << scrub.fields_scanned << " field(s), " << scrub.blocks_scanned
     << " block(s)";
  if (report.sharded)
    os << " across " << report.shards_indexed << " shard(s)";
  if (scrub.parity_enabled)
    os << " + " << scrub.parity_scanned << " parity payload(s)";
  os << " scanned\n" << format_salvage_line(scrub.salvage);
  if (scrub.salvage.consistent_bytes != scrub.salvage.file_bytes)
    os << "  " << (scrub.salvage.file_bytes - scrub.salvage.consistent_bytes)
       << " trailing byte(s) beyond the last checkpoint"
       << " (unsealed write; --repair truncates)\n";
  for (const auto& s : report.shard_trailing)
    os << "  shard " << s.path << ": " << s.trailing
       << " trailing byte(s) beyond the recorded payload"
       << " (unsealed write; --repair truncates)\n";
  for (const auto& orphan : report.orphan_shards)
    os << "  orphan shard " << orphan
       << " not indexed by any checkpoint (--repair removes)\n";
  // Damage still on disk: data payloads first, then parity payloads.
  for (const bool parity : {false, true})
    for (const auto& bad : scrub.issues) {
      if (bad.repaired || bad.parity != parity) continue;
      os << "  CORRUPT " << (parity ? "parity group " : "block ") << bad.index
         << " of field '" << bad.field << "' at offset " << bad.offset
         << " (" << bad.size << " bytes): stored crc " << bad.crc_stored
         << ", actual " << bad.crc_actual
         << (parity ? " (data intact; --repair rebuilds parity)"
             : scrub.parity_enabled
                 ? " (--repair heals what parity covers)"
                 : " (no parity; not repairable — restore from source)")
         << "\n";
    }
  if (scrub.unrecoverable_payloads > 0)
    os << "  UNRECOVERABLE: " << scrub.unrecoverable_payloads
       << " payload(s) beyond single-parity repair\n";
  if (report.truncated)
    os << "  repaired: truncated to " << scrub.salvage.consistent_bytes
       << " bytes\n";
  if (report.shards_truncated > 0 || report.orphans_removed > 0)
    os << "  repaired: " << report.shards_truncated
       << " shard(s) truncated, " << report.orphans_removed
       << " orphan shard(s) removed\n";
  if (scrub.blocks_repaired > 0 || scrub.parity_rebuilt > 0)
    os << "  repaired: " << scrub.blocks_repaired
       << " data payload(s) healed from parity, " << scrub.parity_rebuilt
       << " parity payload(s) rebuilt\n";
  if (report.clean())
    os << "  clean\n";
  return os.str();
}

}  // namespace sz14::archive
