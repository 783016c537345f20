#include "archive/scrub.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <mutex>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <tuple>
#include <utility>

#include "archive/parity.hpp"
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

/// The one repairability rule.  Damage is grouped by (field, parity
/// group), the parity payload counting as a member of its group; single
/// parity heals a group only when exactly one member is damaged, and a
/// parity-less field's damage is simply lost.  Returns the issues the
/// rule calls healable — every other issue is unrecoverable.
std::vector<PayloadIssue*> healable(const ArchiveReader& reader,
                                    std::vector<PayloadIssue>& issues) {
  std::map<std::pair<std::string_view, std::size_t>,
           std::vector<PayloadIssue*>>
      groups;
  for (PayloadIssue& i : issues) {
    const std::uint32_t pg = reader.field(i.field).parity_group;
    if (pg != 0)
      groups[{i.field, i.parity ? i.index : parity_group_of(i.index, pg)}]
          .push_back(&i);
  }
  std::vector<PayloadIssue*> out;
  for (const auto& [group, members] : groups)
    if (members.size() == 1) out.push_back(members.front());
  return out;
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

ScrubReport scan_payloads(const ArchiveReader& reader, std::size_t threads) {
  ScrubReport report;
  report.salvage = reader.salvage_info();
  report.parity_enabled = reader.parity_enabled();
  report.fields_scanned = reader.fields().size();

  const ShardSet& src = reader.source();
  const std::vector<Target> targets = payload_targets(reader.fields());
  for (const auto& t : targets)
    t.parity ? ++report.parity_scanned : ++report.blocks_scanned;

  // The reader validated the INDEX (footer CRC + block bounds); this pass
  // checks the DATA the index points at, one independent pread+crc task
  // per payload.
  std::mutex issue_mutex;
  ThreadPool pool(threads);
  pool.run_batch(targets.size(), [&](std::size_t k) {
    const Target& t = targets[k];
    const std::uint32_t actual = payload_crc(src, t.offset, t.size);
    if (actual == t.crc) return;
    const std::lock_guard<std::mutex> lk(issue_mutex);
    report.issues.push_back(PayloadIssue{t.field->name, t.parity, t.index,
                                         t.offset, t.size, t.crc, actual});
  });
  std::sort(report.issues.begin(), report.issues.end(),
            [](const PayloadIssue& a, const PayloadIssue& b) {
              return std::tie(a.field, a.parity, a.index) <
                     std::tie(b.field, b.parity, b.index);
            });
  report.unrecoverable_payloads =
      report.issues.size() - healable(reader, report.issues).size();
  return report;
}

void heal_payloads(const ArchiveReader& reader, ScrubReport& report) {
  if (report.issues.empty()) return;
  report.repair_attempted = true;
  // Heals read back through the same source they write through: a
  // logical offset resolves to (shard file, local offset) for sharded
  // archives and to the absolute offset for single-file ones.
  const ShardSet& src = reader.source();
  PayloadRewriter rw(src);
  for (PayloadIssue* i : healable(reader, report.issues)) {
    const FieldEntry& f = reader.field(i->field);
    const auto payload = i->parity
                             ? recompute_group_parity(src, f, i->index)
                             : reconstruct_block_payload(src, f, i->index);
    if (!payload) continue;
    rw.rewrite(i->offset, *payload);
    // Trust nothing until the on-disk bytes re-verify.
    i->repaired = payload_crc(src, i->offset, i->size) == i->crc_stored;
    if (i->repaired)
      ++(i->parity ? report.parity_rebuilt : report.blocks_repaired);
  }
  report.unrecoverable_payloads = static_cast<std::size_t>(
      std::count_if(report.issues.begin(), report.issues.end(),
                    [](const PayloadIssue& i) { return !i.repaired; }));
}

ScrubReport scrub_archive(const std::string& path, bool repair,
                          std::size_t threads) {
  const ArchiveReader reader(path, {.threads = 1, .open = OpenMode::kSalvage});
  ScrubReport report = scan_payloads(reader, threads);
  report.path = path;
  if (repair) heal_payloads(reader, report);
  return report;
}

std::string format_salvage_line(const SalvageInfo& salvage) {
  if (!salvage.fallback) return {};
  return "  strict open FAILED (" + salvage.detail +
         "); salvaged checkpoint at byte " +
         std::to_string(salvage.consistent_bytes) + "\n";
}

std::string format_scrub_report(const ScrubReport& report) {
  std::ostringstream os;
  os << report.path << ": " << report.fields_scanned << " field(s), "
     << report.blocks_scanned << " data payload(s), " << report.parity_scanned
     << " parity payload(s) scanned";
  if (!report.parity_enabled) os << " (archive has no parity)";
  os << "\n" << format_salvage_line(report.salvage);
  if (report.salvage.fallback)
    os << "  scrub never truncates; `sz14 archive fsck --repair` truncates "
          "the tail\n";
  for (const auto& i : report.issues) {
    os << "  " << (i.repaired ? "REPAIRED" : "DAMAGED") << " "
       << (i.parity ? "parity group " : "block ") << i.index << " of field '"
       << i.field << "' at offset " << i.offset << " (" << i.size
       << " bytes)";
    if (!i.repaired)
      os << (report.repair_attempted
                 ? ": beyond single-parity repair (second damaged member in "
                   "the group, or no parity)"
                 : ": crc mismatch");
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
  if (report.unrecoverable_payloads > 0)
    os << "  UNRECOVERABLE: " << report.unrecoverable_payloads
       << " payload(s) beyond single-parity repair\n";
  if (report.clean()) os << "  clean\n";
  return os.str();
}

}  // namespace sz14::archive
