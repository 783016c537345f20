// SZA archive reader, built as a concurrent serving component: validates
// the footer index (trailer magic + CRC-32) at open, then serves
// O(blocks-touched) random access from ANY number of threads sharing one
// reader.  All state mutated after construction is synchronized — block
// payload reads are positional (pread, no shared cursor), the decode pool
// is once-initialized, every block decode owns its buffers, and the
// optional decoded-block cache is an internally locked LRU — so read<T>()
// is const and data-race-free.
//
// A read is two steps.  probe() runs on the calling thread: it validates
// the request, looks each intersecting block up in the decoded-block
// cache once and scatters the hits.  decode() serves each miss as ONE
// task that preads its payload, checksums, decodes, and scatters — so
// block i's I/O overlaps block j's decompression instead of an
// all-payloads-first barrier.  The calling thread runs its share of the
// tasks and pool workers the rest.  A fully cached read never touches the
// pool.
//
// `blocks_decoded()` counts every block decode since construction (or the
// last reset), which is how tests and benches verify that a region read
// really touched only the intersecting blocks — and, with the cache
// enabled, that hot repeats decoded nothing at all.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "archive/archive_format.hpp"
#include "archive/block_cache.hpp"
#include "archive/blocking.hpp"
#include "archive/shard.hpp"
#include "archive/single_flight.hpp"
#include "common/exec_policy.hpp"
#include "common/metrics.hpp"
#include "common/pread_file.hpp"
#include "parallel/thread_pool.hpp"

namespace sz14::archive {

/// How strictly ArchiveReader treats a damaged container.
enum class OpenMode : std::uint8_t {
  /// The trailer must sit exactly at EOF and validate — any truncation or
  /// trailing garbage is rejected (the pre-salvage behavior; the right
  /// mode when serving data that must be known-complete).
  kStrict,
  /// If the strict open fails, scan backwards for the most recent valid
  /// footer checkpoint (crash-consistent writers emit one per field) and
  /// serve the fields it covers; salvage_info() reports what happened.
  /// Only an archive with no valid checkpoint at all still throws.
  kSalvage,
  /// kSalvage's open semantics, plus degraded READS: a block that fails
  /// its CRC and cannot be read-repaired from parity no longer throws —
  /// reads zero-fill it (`degraded_reads` counts the affected reads), and
  /// a read given a ReadDamage report learns exactly which blocks are
  /// holes.  The mode for serving what survives of a damaged archive
  /// while it is being repaired.
  kDegraded,
};

/// What a salvage-mode open found (also the basis of `archive fsck`).
struct SalvageInfo {
  bool fallback = false;  ///< true: an earlier checkpoint was used
  std::uint64_t file_bytes = 0;        ///< on-disk size at open
  std::uint64_t consistent_bytes = 0;  ///< end of the checkpoint in use
  std::string detail;  ///< why the strict open failed (empty when clean)
};

/// How an ArchiveReader opens and serves its archive, built with
/// designated initializers: `ArchiveReader r(path, {.threads = 2})`.
struct ReaderOptions {
  /// Workers of the reader's own block-serving pool, built on the first
  /// read (0 = hardware_concurrency()).  Unused when `pool` is set.
  std::size_t threads = 0;
  /// Borrowed block-serving pool (the daemon passes its serving pool, so
  /// a request's block decodes run inline on one worker).  Pool workers
  /// and the calling thread decode their shares of a read identically.
  ThreadPool* pool = nullptr;
  /// kStrict throws std::runtime_error on bad magic, truncated trailer,
  /// footer checksum mismatch or malformed index; kSalvage and kDegraded
  /// fall back to the last valid checkpoint instead (see OpenMode).
  OpenMode open = OpenMode::kStrict;
  /// kPread stages every payload through a per-block buffer; kMmap maps the
  /// payload files and decodes straight from the mapping (zero-copy),
  /// falling back to pread when mapping is unavailable.  Decoded values
  /// are bit-identical either way.
  FetchMode fetch = FetchMode::kPread;
};

/// One unrecoverable block in a damaged read: its region of the output
/// was zero-filled because the payload failed its CRC and parity could
/// not reconstruct it (no parity, or a second damaged member in the
/// group).
struct BlockHole {
  std::string field;         ///< field name
  std::size_t block = 0;     ///< block index within the field
  std::uint64_t offset = 0;  ///< absolute file offset of the payload
  std::string detail;        ///< why reconstruction failed
};

/// Typed per-call damage report filled by a read<T>() given one.
/// `repaired` counts blocks this call transparently reconstructed from
/// parity (their data is exact — not holes); `holes` lists the blocks
/// that stayed unrecoverable and were zero-filled.  Reusable across
/// calls: each call appends.
struct ReadDamage {
  std::uint64_t repaired = 0;
  std::vector<BlockHole> holes;
  [[nodiscard]] bool clean() const noexcept { return holes.empty(); }
};

/// Thrown by the strict read paths when a block payload fails its CRC and
/// cannot be reconstructed from its parity group.  Carries the field and
/// block so callers (e.g. the degraded-serving layer) can report the
/// exact hole.
class BlockDamagedError : public std::runtime_error {
 public:
  BlockDamagedError(std::string field, std::size_t block, std::string detail)
      : std::runtime_error("archive: block " + std::to_string(block) +
                           " of field '" + field +
                           "' is damaged and unrecoverable: " + detail),
        field_(std::move(field)),
        block_(block),
        detail_(std::move(detail)) {}
  [[nodiscard]] const std::string& field_name() const noexcept {
    return field_;
  }
  [[nodiscard]] std::size_t block() const noexcept { return block_; }
  [[nodiscard]] const std::string& detail() const noexcept { return detail_; }

 private:
  std::string field_;
  std::size_t block_;
  std::string detail_;
};

/// A region read split at the cache (see ArchiveReader::probe): `out`
/// holds every cached block's part of the region, `misses` the touched
/// blocks still to decode.
template <class T>
struct PartialRead {
  std::size_t field = 0;  ///< index into ArchiveReader::fields()
  Region region;          ///< the validated request
  /// Row-major, shaped region.extent; empty until the first block lands.
  std::vector<T> out;
  std::vector<std::size_t> misses;  ///< block indices not yet in `out`
  [[nodiscard]] bool complete() const noexcept { return misses.empty(); }
};

class ArchiveReader {
 public:
  /// Opens and indexes `path`, which may name a single-file `.sza`
  /// archive or an `.szm` manifest (sniffed from the superblock magic);
  /// sharded archives resolve (field, block) → (shard, offset) behind the
  /// same API.  Decoding is exact whatever policy wrote the archive.
  explicit ArchiveReader(const std::string& path, ReaderOptions options = {});

  /// Positional form kept for perfbench/bench.cpp; `threads` is the
  /// worker count and only `policy.pool` is read from the policy.
  [[deprecated("perfbench only; ROADMAP item 8")]]
  ArchiveReader(const std::string& path, std::size_t threads,
                ExecPolicy policy = {}, OpenMode mode = OpenMode::kStrict,
                FetchMode fetch = FetchMode::kPread)
      : ArchiveReader(path, {.threads = threads, .pool = policy.pool,
                             .open = mode, .fetch = fetch}) {}

  ArchiveReader(const ArchiveReader&) = delete;
  ArchiveReader& operator=(const ArchiveReader&) = delete;

  /// How this reader was opened: salvage_info().fallback is true when an
  /// earlier checkpoint (not the bytes at EOF) is serving the index.
  [[nodiscard]] const SalvageInfo& salvage_info() const noexcept {
    return salvage_;
  }

  [[nodiscard]] const std::vector<FieldEntry>& fields() const noexcept {
    return fields_;
  }

  /// True when the superblock carries kFlagParity (the footer indexes
  /// per-group parity payloads and read-repair is possible).
  [[nodiscard]] bool parity_enabled() const noexcept {
    return (flags_ & kFlagParity) != 0;
  }

  /// True when `path` is an `.szm` manifest fronting shard files.
  [[nodiscard]] bool sharded() const noexcept { return manifest_; }

  /// Shard table of the checkpoint in use (empty for single-file).
  [[nodiscard]] const std::vector<ShardEntry>& shards() const noexcept {
    return shards_;
  }

  /// The payload byte source (single-file or shards, pread or mmap) —
  /// parity repair, fsck and scrub read through this.
  [[nodiscard]] const ShardSet& source() const noexcept { return source_; }

  /// FetchMode actually serving payloads (kPread after an mmap fallback).
  [[nodiscard]] FetchMode fetch_mode() const noexcept {
    return source_.fetch_mode();
  }

  /// O(1) name lookup (index built at open).  Throws std::invalid_argument
  /// when no field has this name.
  [[nodiscard]] const FieldEntry& field(std::string_view name) const;

  /// Position of `name` in fields(); same lookup/throw as field().
  [[nodiscard]] std::size_t field_index(std::string_view name) const;

  /// Decode the blocks intersecting `region` (std::nullopt: the whole
  /// field) and return the hyperslab row-major, shaped region.extent.  T
  /// is float for an f32 field and double for an f64 one.  Throws
  /// std::invalid_argument on a dtype mismatch, a region whose rank
  /// mismatches, has a zero extent, or exceeds the field bounds;
  /// std::runtime_error on checksum/decode failure.  Thread-safe: any
  /// number of threads may call concurrently on one reader, with results
  /// bit-identical to sequential calls.  It is probe() then decode(): a
  /// fully cached read runs on the calling thread alone.
  ///
  /// With a `damage` report a damaged BLOCK never throws (index and
  /// argument errors still do): a CRC-failed block is reconstructed from
  /// parity when possible (damage->repaired counts it; the data is
  /// exact), and an unrecoverable block is zero-filled in the output and
  /// appended to damage->holes.  Available in every OpenMode.
  template <class T>
  [[nodiscard]] std::vector<T> read(
      std::string_view name,
      const std::optional<Region>& region = std::nullopt,
      ReadDamage* damage = nullptr) const;

  /// read<T>'s first step, on the calling thread: validate the request
  /// (throwing like read<T>), look every touched block up in the cache
  /// exactly once and scatter the hits into the result.  Never decodes,
  /// never touches the pool.
  template <class T>
  [[nodiscard]] PartialRead<T> probe(
      std::string_view name,
      const std::optional<Region>& region = std::nullopt) const;

  /// read<T>'s second step: decode `read.misses` on the serving pool
  /// (with no second cache probe) and scatter them into `read.out`, which
  /// is then complete.  `damage` as for read<T>.  A no-op on a complete
  /// read.
  template <class T>
  void decode(PartialRead<T>& read, ReadDamage* damage = nullptr) const;

  /// read<float>(name, region), kept for perfbench/bench.cpp.
  [[deprecated("perfbench only; ROADMAP item 8")]] [[nodiscard]]
  std::vector<float> read_region(std::string_view name,
                                 const Region& region) const {
    return read<float>(name, region);
  }

  /// Opt into the decoded-block LRU cache with a byte budget (decoded
  /// size); 0 (the default) disables it.  Safe to call at any time, also
  /// while reads are in flight.
  void set_cache_capacity(std::size_t bytes) { cache_.set_capacity(bytes); }

  /// Opt into single-flight request coalescing: concurrent decodes of the
  /// same (field, block) share ONE pread+CRC+decode instead of N (the
  /// serving daemon's hot-burst path).  With the cache also enabled, a
  /// cold concurrent burst decodes each block exactly once — the winner
  /// re-probes the cache after taking leadership, closing the probe/join
  /// race.  Safe to toggle at any time; defaults to off so single-client
  /// workloads pay nothing.
  void set_coalescing(bool on) noexcept {
    coalesce_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool coalescing() const noexcept {
    return coalesce_.load(std::memory_order_relaxed);
  }

  /// Blocks decoded since construction or reset_counters() (cache hits
  /// decode nothing and do not count).
  [[nodiscard]] std::uint64_t blocks_decoded() const noexcept {
    return blocks_decoded_.load(std::memory_order_relaxed);
  }

  /// Every counter as a named record: the reader's own five (the
  /// atomics at the end of this class), then the cache's and the
  /// single-flight map's.
  [[nodiscard]] Metrics metrics() const;

  /// Zero blocks_decoded(), the damage counters, coalesced_reads and
  /// the cache hit/miss/eviction counters (cached DATA stays resident —
  /// only the statistics reset).
  void reset_counters() noexcept {
    blocks_decoded_.store(0, std::memory_order_relaxed);
    crc_failures_.store(0, std::memory_order_relaxed);
    read_repairs_.store(0, std::memory_order_relaxed);
    unrecoverable_blocks_.store(0, std::memory_order_relaxed);
    degraded_reads_.store(0, std::memory_order_relaxed);
    cache_.reset_stats();
    flight_.reset_stats();
  }

 private:
  /// pread + CRC + decode of one block (cache not consulted here).  The
  /// CRC covers the whole payload; the decode covers only the leading
  /// `box` of the block (CodecOps contract).  A CRC failure attempts parity
  /// reconstruction; on success `*repairs` (when non-null) is bumped and
  /// the exact data is returned, otherwise BlockDamagedError is thrown.
  template <typename T>
  std::vector<T> decode_block(const FieldEntry& f, std::size_t block_index,
                              const Dims& block_dims, const LeadBox& box,
                              std::atomic<std::uint64_t>* repairs) const;

  /// The serving pool, built race-free on first use (metadata-only
  /// consumers — e.g. `archive ls` — never pay for one).
  ThreadPool& serving_pool() const;

  /// Validate a trailer+footer whose trailer ends at `end`; on success
  /// populates fields_/index_ (and, for a manifest, shards_ + source_)
  /// and returns empty, otherwise returns the failure reason.
  [[nodiscard]] std::string try_open_at(std::uint64_t end);

  PreadFile file_;  // the container/manifest file (index reads, pread)
  ShardSet source_;  // payload reads (single or sharded, per opts_.fetch)
  ReaderOptions opts_;
  bool manifest_ = false;   // path is an .szm manifest
  std::vector<ShardEntry> shards_;  // manifest shard table in use
  std::uint8_t flags_ = 0;  // superblock flags (kFlagParity gates parity)
  SalvageInfo salvage_;
  std::vector<FieldEntry> fields_;

  // Heterogeneous lookup so field("name") takes no std::string detour.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };
  std::unordered_map<std::string, std::size_t, NameHash, std::equal_to<>>
      index_;

  mutable std::once_flag pool_once_;
  mutable std::unique_ptr<ThreadPool> owned_pool_;
  mutable ThreadPool* pool_ = nullptr;  // owned_pool_ or opts_.pool
  mutable BlockCache cache_;
  mutable SingleFlight flight_;
  std::atomic<bool> coalesce_{false};
  mutable std::atomic<std::uint64_t> blocks_decoded_{0};
  // Payloads that failed their stored CRC-32 at decode time; each is then
  // read-repaired or counted unrecoverable.
  mutable std::atomic<std::uint64_t> crc_failures_{0};
  // CRC-failed blocks rebuilt from their parity group (the data is exact).
  mutable std::atomic<std::uint64_t> read_repairs_{0};
  // CRC-failed blocks parity could not rebuild (no parity, or a second
  // damaged member in the group).
  mutable std::atomic<std::uint64_t> unrecoverable_blocks_{0};
  // Read calls that returned at least one zero-filled hole (degraded mode
  // or a read given a ReadDamage report).
  mutable std::atomic<std::uint64_t> degraded_reads_{0};
};

extern template std::vector<float> ArchiveReader::read<float>(
    std::string_view, const std::optional<Region>&, ReadDamage*) const;
extern template std::vector<double> ArchiveReader::read<double>(
    std::string_view, const std::optional<Region>&, ReadDamage*) const;
extern template PartialRead<float> ArchiveReader::probe<float>(
    std::string_view, const std::optional<Region>&) const;
extern template PartialRead<double> ArchiveReader::probe<double>(
    std::string_view, const std::optional<Region>&) const;
extern template void ArchiveReader::decode<float>(PartialRead<float>&,
                                                  ReadDamage*) const;
extern template void ArchiveReader::decode<double>(PartialRead<double>&,
                                                   ReadDamage*) const;

}  // namespace sz14::archive
