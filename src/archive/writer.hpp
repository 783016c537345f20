// Append-only SZA archive writer: each append_field() call shards one
// named d-dimensional field into fixed-size blocks, compresses the blocks
// in parallel on a thread pool (batch API), and appends the payloads to the
// container.  finish() seals the file with the footer index + trailer.
//
// With WriterOptions::shard_size > 0 the writer produces a SHARDED archive
// instead: the named path becomes a small `.szm` manifest and the payload
// bytes land in rolling shard files next to it (see shard.hpp for the
// on-disk layout).
// The writer rolls to a new shard before any payload that would push the
// current shard past the threshold (payloads never span shards; one
// oversized payload gets a shard to itself), keeps a running CRC-32 per
// shard, and the per-append checkpoint — shard table + field footer +
// trailer — goes into the manifest after the shard stream is flushed, so
// a checkpoint never indexes shard bytes that are not on disk.
// shard_size == 0 (the default) writes the single-file `.sza` format
// through the exact same code path as before — byte-identical output.
//
// Incremental snapshot workflows simply append one field per timestep
// ("temp/t000", "temp/t001", ...); nothing already written is ever touched.
//
// Crash consistency: after every successful append_field() the writer
// emits a footer CHECKPOINT — a complete footer + trailer covering all
// fields so far, flushed to the OS — so a writer killed (or hitting
// ENOSPC/EIO) mid-ingest leaves a file from which ArchiveReader's
// salvage-open and `sz14 archive fsck --repair` recover every completed
// field bit-identical.  Checkpoints are self-delimiting (size + CRC in the
// trailer) and each one supersedes the previous: the next append simply
// continues writing payloads after it, the final checkpoint doubles as the
// sealed archive's footer, and readers never pay anything for the
// superseded ones (block offsets are absolute, the index at EOF wins).
//
// Every write is checked: a failed std::ofstream write throws
// std::runtime_error carrying the failing offset instead of silently
// producing a corrupt archive, and the writer refuses further appends
// afterwards (the file is still salvageable up to the last checkpoint —
// consistent_bytes() says how far).
#pragma once

#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "archive/archive_format.hpp"
#include "archive/shard.hpp"
#include "common/dims.hpp"
#include "common/exec_policy.hpp"
#include "parallel/thread_pool.hpp"

namespace sz14::archive {

/// How an ArchiveWriter lays out and compresses its archive, built with
/// designated initializers: `ArchiveWriter w(path, {.parity_group = 4})`.
struct WriterOptions {
  /// Per-call execution strategy of every append_field(): `exec.entropy`
  /// selects the entropy backend, `exec.pool` the block-compression pool
  /// and, when it is null, `exec.threads` the workers of the writer's own
  /// pool (0 = hardware_concurrency()).  The thread that calls
  /// append_field() compresses its share of the blocks too; every block
  /// task owns its buffers.  (`= {}` spares callers that set only the fields below
  /// GCC's -Wmissing-field-initializers.)
  ExecPolicy exec = {};
  /// > 0 enables XOR block-group parity: every group of that many
  /// consecutive blocks of a field gets one parity payload (XOR of the
  /// members zero-padded to the largest), written after the data payloads
  /// and indexed in the footer, so any single damaged payload per group is
  /// recoverable (read-repair / fsck / scrub).  Space overhead is roughly
  /// 1/parity_group of the compressed size (kDefaultParityGroup = 16 →
  /// ~6.25%).  0 writes the parity-less format, byte-identical to
  /// pre-parity archives.
  std::uint32_t parity_group = 0;
  /// > 0 selects the sharded container: the path is written as an `.szm`
  /// manifest and payloads roll into shard files of roughly that many
  /// bytes each (see the file comment).  0 keeps the single-file format.
  std::uint64_t shard_size = 0;
};

class ArchiveWriter {
 public:
  /// Creates (truncates) `path` and writes the superblock.  The options
  /// are plain per-writer state — concurrent codec work elsewhere in the
  /// process is unaffected.
  explicit ArchiveWriter(const std::string& path, WriterOptions options = {});

  /// Positional form kept for perfbench/bench.cpp; `threads` is the
  /// worker count (policy.threads is not read).
  [[deprecated("perfbench only; ROADMAP item 8")]]
  ArchiveWriter(const std::string& path, std::size_t threads,
                ExecPolicy policy = {}, std::uint32_t parity_group = 0,
                std::uint64_t shard_size = 0)
      : ArchiveWriter(path, {.exec = {.pool = policy.pool,
                                      .threads = threads,
                                      .entropy = policy.entropy},
                             .parity_group = parity_group,
                             .shard_size = shard_size}) {}

  /// Seals the archive on destruction if finish() was not called.
  /// Best-effort: a failure to seal is reported on stderr (a destructor
  /// cannot throw) — call finish() explicitly to observe errors properly.
  ~ArchiveWriter();

  ArchiveWriter(const ArchiveWriter&) = delete;
  ArchiveWriter& operator=(const ArchiveWriter&) = delete;

  /// Compress and append a float32 field sharded into `block_dims` blocks
  /// through codec `codec_name` under absolute bound `eb_abs` (ignored by
  /// lossless codecs).  Throws std::invalid_argument on duplicate name,
  /// shape mismatch, or unknown codec; std::runtime_error on I/O failure.
  void append_field(const std::string& name, std::span<const float> data,
                    const Dims& dims, const Dims& block_dims,
                    const std::string& codec_name, double eb_abs);

  /// Double-precision variant; throws std::invalid_argument when the codec
  /// has no f64 path.
  void append_field(const std::string& name, std::span<const double> data,
                    const Dims& dims, const Dims& block_dims,
                    const std::string& codec_name, double eb_abs);

  /// Write footer + trailer and close the file.  Idempotent; append_field()
  /// throws std::logic_error afterwards.
  void finish();

  [[nodiscard]] bool finished() const noexcept { return finished_; }

  /// File size through which the on-disk bytes form a complete, readable
  /// archive (end of the last flushed checkpoint).  0 until the first
  /// checkpoint lands; equal to the final file size once finish()ed.
  [[nodiscard]] std::uint64_t consistent_bytes() const noexcept {
    return clean_size_;
  }

  /// True after a write failure: the writer refuses further appends (the
  /// on-disk state up to consistent_bytes() remains valid).
  [[nodiscard]] bool broken() const noexcept { return broken_; }

  /// Index entries written so far (for inspection/tests).
  [[nodiscard]] const std::vector<FieldEntry>& fields() const noexcept {
    return fields_;
  }

  /// True when this writer emits the sharded (manifest + shards) format.
  [[nodiscard]] bool sharded() const noexcept { return opts_.shard_size > 0; }

  /// Manifest shard table built so far (empty for single-file writers).
  [[nodiscard]] const std::vector<ShardEntry>& shards() const noexcept {
    return shards_;
  }

 private:
  template <typename T>
  void append_impl(const std::string& name, std::span<const T> data,
                   const Dims& dims, const Dims& block_dims,
                   const std::string& codec_name, double eb_abs);

  /// Write + verify stream state on `os` writing file `fpath` at
  /// `*pos` (advanced on success); throws std::runtime_error with the
  /// failing offset and marks the writer broken on failure.  The one
  /// funnel for every byte this class emits — container, manifest and
  /// shard files alike (failpoint site "archive.writer.write").
  void funnel_write(std::ofstream& os, const std::string& fpath,
                    std::uint64_t* pos, std::span<const std::uint8_t> data,
                    const char* what);

  /// funnel_write into the container/manifest stream.
  void raw_write(std::span<const std::uint8_t> data, const char* what);

  /// Next logical/absolute offset a payload will land at.
  [[nodiscard]] std::uint64_t payload_offset() const noexcept {
    return sharded() ? logical_offset_ : offset_;
  }

  /// Append one payload: straight into the container (single-file) or
  /// into the active shard, rolling first when the threshold is reached.
  void payload_write(std::span<const std::uint8_t> data, const char* what);

  /// Flush + close the active shard (if any) and open the next one.
  void roll_shard();

  /// Footer + trailer covering fields_ (and, sharded, the shard table),
  /// flushed; updates clean_size_.
  void write_checkpoint();

  std::string path_;
  WriterOptions opts_;
  std::ofstream out_;
  std::uint64_t offset_ = 0;      // absolute file offset of the next write
  std::uint64_t clean_size_ = 0;  // end of the last flushed checkpoint
  // Sharded-mode state: the active shard stream and the manifest table.
  std::ofstream shard_out_;
  std::string shard_path_;             // resolved path of the active shard
  std::uint64_t shard_file_offset_ = 0;  // next write offset in the shard
  std::uint64_t logical_offset_ = 0;     // next logical payload offset
  std::vector<ShardEntry> shards_;
  std::vector<FieldEntry> fields_;
  std::unordered_set<std::string> names_;  // O(1) duplicate-append rejection
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_ = nullptr;  // owned_pool_ or opts_.exec.pool
  bool finished_ = false;
  bool broken_ = false;
};

}  // namespace sz14::archive
