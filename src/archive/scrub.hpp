// The payload scan and heal engine behind `sz14 archive scrub [--repair]`,
// `sz14 archive fsck [--repair]` and the serving daemon's background scrub.
//
// scan_payloads() is the one CRC pass over an archive's payloads: every
// indexed data block and parity payload is read and checked against its
// stored CRC-32, pool-parallel (each payload is an independent pread+crc
// task).  The damage is then classified by the one repairability rule:
// single parity heals a parity group with exactly one damaged member
// (data or parity); two or more damaged members in one group, or any
// damage in a parity-less field, are unrecoverable.
//
// heal_payloads() takes the reader and the scan's issue list and touches
// only the groups that rule calls healable: a damaged DATA block is
// reconstructed from the group's parity + intact members, a damaged
// PARITY payload is recomputed from its data members (both re-check every
// CRC they read, parity.hpp), then rewritten in place and re-verified, so
// a report that says `repaired` really left the stored bytes on disk.
// Everything else is left untouched — a wrong rewrite would destroy the
// evidence a stronger recovery could use.  Every rewrite passes the
// failpoint site "archive.scrub.rewrite" first, so tests and drills can
// inject mid-heal failures.
//
// scrub_archive() opens in salvage mode, scans and (with `repair`) heals.
// It never truncates: it runs under a live daemon.  A torn archive (the
// strict open failed and an earlier checkpoint is serving) is reported
// not clean, and `fsck --repair` (fsck.hpp) is the tool that cuts the
// tail.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "archive/reader.hpp"

namespace sz14::archive {

/// One CRC-damaged payload found by the scan.
struct PayloadIssue {
  std::string field;
  bool parity = false;    ///< true: a parity payload (index = group index)
  std::size_t index = 0;  ///< block index, or parity-group index
  std::uint64_t offset = 0;  ///< logical payload offset
  std::uint64_t size = 0;    ///< payload bytes
  std::uint32_t crc_stored = 0;
  std::uint32_t crc_actual = 0;
  bool repaired = false;  ///< heal rewrote this payload and it re-verified

  bool operator==(const PayloadIssue&) const = default;
};

struct ScrubReport {
  std::string path;
  SalvageInfo salvage;  ///< how the open went (fallback: a torn tail)
  bool parity_enabled = false;  ///< superblock carries kFlagParity
  bool repair_attempted = false;  ///< a heal ran over a non-empty issue list
  std::size_t fields_scanned = 0;
  std::size_t blocks_scanned = 0;  ///< data payloads verified
  std::size_t parity_scanned = 0;  ///< parity payloads verified
  std::size_t blocks_repaired = 0;  ///< data payloads healed from parity
  std::size_t parity_rebuilt = 0;   ///< parity payloads recomputed
  /// Damaged payloads single parity cannot heal: the scan's per-group
  /// classification, replaced after a heal by the re-verified count of
  /// payloads still damaged.
  std::size_t unrecoverable_payloads = 0;
  std::vector<PayloadIssue> issues;  ///< sorted by (field, parity, index)

  /// No damage found: strict-openable and every payload CRC good.
  [[nodiscard]] bool clean() const noexcept {
    return !salvage.fallback && issues.empty();
  }
  /// Damage exists and ALL of it is within reach — a `--repair` rerun
  /// (of fsck, for a torn tail) would leave the archive clean.
  [[nodiscard]] bool repairable() const noexcept {
    return !clean() && unrecoverable_payloads == 0;
  }
  /// Damage was found and every instance of it was healed + re-verified.
  [[nodiscard]] bool fully_repaired() const noexcept {
    return repair_attempted && !salvage.fallback && !issues.empty() &&
           unrecoverable_payloads == 0;
  }
};

/// The one payload CRC pass: verify every indexed payload of `reader` on
/// a pool of `threads` workers (0 = hardware_concurrency) and classify the
/// damage.  Modifies nothing.
[[nodiscard]] ScrubReport scan_payloads(const ArchiveReader& reader,
                                        std::size_t threads);

/// Heal, in place through `reader`'s payload source, every issue of
/// `report` the repairability rule calls healable; re-verify each rewrite
/// and update the report's `repaired` flags and counters.  No-op on an
/// empty issue list.  Throws std::runtime_error when a rewrite fails
/// (including injected failures).
void heal_payloads(const ArchiveReader& reader, ScrubReport& report);

/// Salvage-open `path`, scan it, and with `repair` heal what single
/// parity can reconstruct.  Throws std::runtime_error when the archive
/// has no valid checkpoint at all or a heal rewrite fails.
[[nodiscard]] ScrubReport scrub_archive(const std::string& path, bool repair,
                                        std::size_t threads = 0);

/// The "strict open FAILED" line both fsck and scrub print for a salvaged
/// open (empty when the strict open succeeded).
[[nodiscard]] std::string format_salvage_line(const SalvageInfo& salvage);

/// Render a report as the multi-line text `sz14 archive scrub` prints.
[[nodiscard]] std::string format_scrub_report(const ScrubReport& report);

}  // namespace sz14::archive
