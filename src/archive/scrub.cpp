#include "archive/scrub.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <mutex>
#include <span>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "archive/parity.hpp"
#include "archive/reader.hpp"
#include "common/failpoint.hpp"
#include "parallel/thread_pool.hpp"

namespace sz14::archive {
namespace {

/// One payload the scan must verify (data block or parity payload).
struct Target {
  const FieldEntry* field;
  bool parity;
  std::size_t index;
  std::uint64_t offset;
  std::uint64_t size;
  std::uint32_t crc;
};

std::vector<Target> payload_targets(const std::vector<FieldEntry>& fields) {
  std::vector<Target> targets;
  for (const auto& f : fields) {
    for (std::size_t i = 0; i < f.blocks.size(); ++i)
      targets.push_back({&f, false, i, f.blocks[i].offset, f.blocks[i].size,
                         f.blocks[i].crc});
    for (std::size_t g = 0; g < f.parity.size(); ++g)
      targets.push_back({&f, true, g, f.parity[g].offset, f.parity[g].size,
                         f.parity[g].crc});
  }
  return targets;
}

/// In-place payload rewriter over the archive's payload space: resolves
/// logical offsets through the reader's ShardSet (single-file offsets are
/// absolute; sharded offsets land in whichever shard holds them) and
/// keeps one read/write stream per touched file.
class PayloadRewriter {
 public:
  explicit PayloadRewriter(const ShardSet& src) : src_(src) {}

  /// Rewrite one payload.  Failpoint site "archive.scrub.rewrite":
  /// error/enospc throw inside trigger(); drop swallows the write (the
  /// caller's re-verify then reports the payload still damaged);
  /// short/torn put a prefix on disk and throw — a heal interrupted
  /// mid-rewrite, which the next scrub finds and finishes (the rewrite
  /// is idempotent).
  void rewrite(std::uint64_t logical, std::span<const std::uint8_t> data) {
    if (const auto f = fail::trigger("archive.scrub.rewrite")) {
      if (f->kind == fail::Kind::kDrop) return;
      const std::size_t part = std::min<std::size_t>(
          data.size(), f->arg > 0 ? static_cast<std::size_t>(f->arg) : 0);
      write_range(logical, data.first(part));
      throw std::runtime_error("scrub: torn rewrite at offset " +
                               std::to_string(logical + part) +
                               " (failpoint)");
    }
    write_range(logical, data);
  }

 private:
  /// Write `data` at logical `offset`, crossing shard boundaries if a
  /// payload ever spans one (the writer never splits payloads, but the
  /// heal path must not silently corrupt if an index says otherwise).
  void write_range(std::uint64_t offset, std::span<const std::uint8_t> data) {
    std::size_t done = 0;
    while (done < data.size()) {
      const ShardSet::Location loc = src_.locate(offset + done);
      const std::size_t take = static_cast<std::size_t>(
          std::min<std::uint64_t>(loc.available, data.size() - done));
      std::fstream& rw = stream_for(loc.path);
      rw.seekp(static_cast<std::streamoff>(loc.offset));
      rw.write(reinterpret_cast<const char*>(data.data() + done),
               static_cast<std::streamsize>(take));
      rw.flush();
      if (!rw)
        throw std::runtime_error(
            "scrub: rewrite of " + std::to_string(take) +
            " bytes at offset " + std::to_string(loc.offset) + " failed in " +
            loc.path);
      done += take;
    }
  }

  std::fstream& stream_for(const std::string& path) {
    auto it = streams_.find(path);
    if (it == streams_.end()) {
      it = streams_
               .emplace(path,
                        std::fstream(path, std::ios::in | std::ios::out |
                                               std::ios::binary))
               .first;
      if (!it->second)
        throw std::runtime_error("scrub: cannot open for rewrite: " + path);
    }
    return it->second;
  }

  const ShardSet& src_;
  std::map<std::string, std::fstream> streams_;
};

}  // namespace

HealOutcome heal_damaged_payloads(const std::string& path) {
  HealOutcome out;
  ArchiveReader reader(path, {.threads = 1, .open = OpenMode::kSalvage});
  // Heals read back through the same source they write through: a
  // logical offset resolves to (shard file, local offset) for sharded
  // archives and to the absolute offset for single-file ones.
  const ShardSet& file = reader.source();
  PayloadRewriter rw(file);

  for (const auto& f : reader.fields()) {
    if (f.parity_group == 0) {
      // No parity: every damaged block is simply lost data.
      for (const auto& b : f.blocks)
        if (!verify_payload(file, b.offset, b.size, b.crc))
          ++out.unrecoverable;
      continue;
    }
    for (std::size_t g = 0; g < f.parity.size(); ++g) {
      const std::size_t lo = g * f.parity_group;
      const std::size_t hi =
          std::min<std::size_t>(lo + f.parity_group, f.blocks.size());
      std::vector<std::size_t> bad;
      for (std::size_t i = lo; i < hi; ++i)
        if (!verify_payload(file, f.blocks[i].offset, f.blocks[i].size,
                            f.blocks[i].crc))
          bad.push_back(i);
      const bool parity_ok = verify_payload(file, f.parity[g].offset,
                                            f.parity[g].size, f.parity[g].crc);
      if (bad.empty() && parity_ok) continue;

      if (bad.empty()) {
        // Parity-only damage: no data is at risk; rebuild the parity from
        // the (just verified) data members so the group is protected again.
        if (const auto p = recompute_group_parity(file, f, g)) {
          rw.rewrite(f.parity[g].offset, *p);
          if (verify_payload(file, f.parity[g].offset, f.parity[g].size,
                             f.parity[g].crc))
            ++out.parity_rebuilt;
          else
            ++out.unrecoverable;
        } else {
          ++out.unrecoverable;
        }
        continue;
      }
      if (bad.size() == 1 && parity_ok) {
        // The single-erasure case parity exists for: reconstruct, rewrite,
        // and trust nothing until the on-disk bytes re-verify.
        if (const auto payload =
                reconstruct_block_payload(file, f, bad[0])) {
          const BlockEntry& b = f.blocks[bad[0]];
          rw.rewrite(b.offset, *payload);
          if (verify_payload(file, b.offset, b.size, b.crc))
            ++out.blocks_repaired;
          else
            ++out.unrecoverable;
        } else {
          ++out.unrecoverable;
        }
        continue;
      }
      // Two or more damaged members in one group: single parity cannot
      // tell the unknowns apart.  Leave everything untouched — a wrong
      // rewrite would destroy the evidence a stronger recovery could use.
      out.unrecoverable += bad.size() + (parity_ok ? 0 : 1);
    }
  }
  return out;
}

ScrubReport scrub_archive(const std::string& path, bool repair,
                          std::size_t threads) {
  ScrubReport report;
  report.path = path;

  ArchiveReader reader(path, {.threads = 1, .open = OpenMode::kSalvage});
  report.parity_enabled = reader.parity_enabled();
  report.fields_scanned = reader.fields().size();

  const ShardSet& file = reader.source();
  const std::vector<Target> targets = payload_targets(reader.fields());
  for (const auto& t : targets)
    t.parity ? ++report.parity_scanned : ++report.blocks_scanned;

  // Pool-parallel verify: each payload is one independent pread+crc task.
  std::mutex issue_mutex;
  std::vector<std::size_t> issue_targets;  // parallel to report.issues
  ThreadPool pool(threads);
  pool.run_batch(targets.size(), [&](std::size_t k) {
    const Target& t = targets[k];
    if (verify_payload(file, t.offset, t.size, t.crc)) return;
    const std::lock_guard<std::mutex> lk(issue_mutex);
    report.issues.push_back(ScrubIssue{t.field->name, t.parity, t.index,
                                       t.offset, t.size, false,
                                       "crc mismatch"});
    issue_targets.push_back(k);
  });

  // Classify repairability the way fsck does: per parity group, count
  // damaged members (the parity payload counts as one); two or more in a
  // group — or any damage in a parity-less field — is beyond single parity.
  std::map<std::pair<const FieldEntry*, std::size_t>, std::size_t> group_bad;
  for (const std::size_t k : issue_targets) {
    const Target& t = targets[k];
    if (t.field->parity_group == 0) {
      ++report.unrecoverable_payloads;
      continue;
    }
    const std::size_t g = t.parity ? t.index : t.index / t.field->parity_group;
    ++group_bad[{t.field, g}];
  }
  for (const auto& [group, n] : group_bad)
    if (n >= 2) report.unrecoverable_payloads += n;

  if (repair && !report.issues.empty()) {
    report.repair_attempted = true;
    const HealOutcome healed = heal_damaged_payloads(path);
    report.blocks_repaired = healed.blocks_repaired;
    report.parity_rebuilt = healed.parity_rebuilt;
    // Re-verify each damaged payload so the report describes the on-disk
    // RESULT, not the heal's intent.
    for (std::size_t j = 0; j < report.issues.size(); ++j) {
      const Target& t = targets[issue_targets[j]];
      if (verify_payload(file, t.offset, t.size, t.crc)) {
        report.issues[j].repaired = true;
        report.issues[j].detail.clear();
      } else {
        report.issues[j].detail =
            "beyond single-parity repair (second damaged member in the "
            "group, or no parity)";
      }
    }
  }

  std::sort(report.issues.begin(), report.issues.end(),
            [](const ScrubIssue& a, const ScrubIssue& b) {
              return std::tie(a.field, a.parity, a.index) <
                     std::tie(b.field, b.parity, b.index);
            });
  return report;
}

std::string format_scrub_report(const ScrubReport& report) {
  std::ostringstream os;
  os << report.path << ": " << report.fields_scanned << " field(s), "
     << report.blocks_scanned << " data payload(s), " << report.parity_scanned
     << " parity payload(s) scanned";
  if (!report.parity_enabled) os << " (archive has no parity)";
  os << "\n";
  for (const auto& i : report.issues) {
    os << "  " << (i.repaired ? "REPAIRED" : "DAMAGED") << " "
       << (i.parity ? "parity group " : "block ") << i.index << " of field '"
       << i.field << "' at offset " << i.offset << " (" << i.size
       << " bytes)";
    if (!i.detail.empty()) os << ": " << i.detail;
    os << "\n";
  }
  if (report.repair_attempted)
    os << "  healed: " << report.blocks_repaired << " data payload(s), "
       << report.parity_rebuilt << " parity payload(s) rebuilt\n";
  else if (!report.issues.empty())
    os << "  " << report.issues.size() << " damaged payload(s) found"
       << (report.repairable()
               ? " — all within single-parity reach (rerun with --repair)"
               : " (--repair heals what parity covers)")
       << "\n";
  if (report.unrecoverable() > 0)
    os << "  UNRECOVERABLE: " << report.unrecoverable()
       << " payload(s) beyond single-parity repair\n";
  if (report.clean()) os << "  clean\n";
  return os.str();
}

}  // namespace sz14::archive
