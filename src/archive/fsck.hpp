// Archive consistency checker ("fsck") for SZA containers, the library
// behind `sz14 archive fsck [--repair]`.
//
// fsck is the structural half of integrity checking; the payload half is
// the scan and heal engine in scrub.hpp, which fsck runs on its own
// salvage-opened reader.  The structure: whether the strict open works,
// how many trailing bytes a crash left behind the last checkpoint, which
// shard files run past their recorded size, and which shard files no
// checkpoint indexes.
//
// fsck_repair() truncates the file (and each torn shard) to the last
// consistent checkpoint, removes orphan shards, heals the scan's payload
// issues through the engine, and re-opens the archive to prove the
// structure is consistent again.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "archive/scrub.hpp"

namespace sz14::archive {

/// One shard file with bytes beyond what the checkpoint in use recorded
/// (a crashed writer's torn payload, or payloads sealed only by a torn —
/// now superseded — checkpoint).  `--repair` truncates the shard back.
struct FsckShardIssue {
  std::string path;             ///< shard file path
  std::uint64_t keep_bytes = 0; ///< header + recorded payload bytes
  std::uint64_t trailing = 0;   ///< garbage bytes beyond keep_bytes
};

struct FsckReport {
  /// The payload scan, plus the salvage facts of the open: file bytes,
  /// the checkpoint in use, and why the strict open failed.
  ScrubReport scrub;
  bool sharded = false;            ///< path is an .szm manifest
  std::size_t shards_indexed = 0;  ///< shard files named by the checkpoint
  std::vector<FsckShardIssue> shard_trailing;  ///< shards needing truncation
  /// Shard files on disk matching this manifest's naming that the
  /// checkpoint in use does NOT index (left by a crash after a roll but
  /// before the next checkpoint) — removed by `--repair`.
  std::vector<std::string> orphan_shards;
  bool truncated = false;  ///< repair removed the trailing garbage
  std::size_t shards_truncated = 0;  ///< repair cut these shards back
  std::size_t orphans_removed = 0;   ///< repair deleted these shard files

  /// Clean: strict-openable, no trailing garbage (container OR shards),
  /// no orphan shards, every payload CRC good (or healed by the repair).
  [[nodiscard]] bool clean() const noexcept {
    return (scrub.clean() || scrub.fully_repaired()) && !needs_truncate();
  }
  /// Repairable damage: a truncation would restore strict readability.
  [[nodiscard]] bool needs_truncate() const noexcept {
    return scrub.salvage.consistent_bytes != scrub.salvage.file_bytes ||
           !shard_trailing.empty() || !orphan_shards.empty();
  }
  /// Damage exists and ALL of it is repairable (truncation and/or parity
  /// heal) — `--repair` would leave the archive clean.
  [[nodiscard]] bool repairable() const noexcept {
    return !clean() && scrub.unrecoverable_payloads == 0;
  }
};

/// Scan `path` without modifying it.  Throws std::runtime_error only when
/// the file has no valid checkpoint at all (nothing salvageable).
[[nodiscard]] FsckReport fsck_scan(const std::string& path);

/// Scan, then (when needed) truncate to the last consistent checkpoint and
/// heal CRC-damaged payloads through parity.  Returns the report with
/// `truncated`/`scrub.repaired` flags describing what was done and the
/// salvage facts of the re-open.  Throws std::runtime_error when nothing
/// is salvageable, the truncation/rewrite itself fails, or the re-open
/// still finds the structure inconsistent.
FsckReport fsck_repair(const std::string& path);

/// Render a report as the multi-line human text `sz14 archive fsck` prints.
[[nodiscard]] std::string format_fsck_report(const FsckReport& report);

}  // namespace sz14::archive
