#include "archive/writer.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <thread>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "archive/blocking.hpp"
#include "archive/codec.hpp"
#include "archive/parity.hpp"
#include "common/checksum.hpp"
#include "common/failpoint.hpp"
#include "core/format.hpp"

namespace sz14::archive {
namespace {

template <typename T>
std::vector<std::uint8_t> codec_compress(const CodecOps& ops,
                                         std::span<const T> block,
                                         const Dims& dims, double eb_abs,
                                         const ExecPolicy& exec) {
  if constexpr (std::is_same_v<T, float>) {
    return ops.compress32(block, dims, eb_abs, exec);
  } else {
    return ops.compress64(block, dims, eb_abs, exec);
  }
}

}  // namespace

ArchiveWriter::ArchiveWriter(const std::string& path, WriterOptions options)
    : path_(path), opts_(options),
      out_(path, std::ios::binary | std::ios::trunc) {
  if (!out_) throw std::runtime_error("archive: cannot create: " + path);
  ByteWriter sb;
  if (sharded())
    write_manifest_superblock(sb, opts_.parity_group > 0 ? kFlagParity : 0);
  else
    write_superblock(sb, opts_.parity_group > 0 ? kFlagParity : 0);
  raw_write(sb.view(), "superblock write");
  if (opts_.exec.pool != nullptr) {
    pool_ = opts_.exec.pool;
  } else {
    owned_pool_ = std::make_unique<ThreadPool>(opts_.exec.threads);
    pool_ = owned_pool_.get();
  }
}

ArchiveWriter::~ArchiveWriter() {
  if (finished_) return;
  try {
    finish();
  } catch (const std::exception& e) {
    // A destructor must not throw, but silence would hide a corrupt or
    // unsealed archive from the operator entirely; say what happened and
    // how far the file is still readable.
    std::fprintf(stderr,
                 "archive: WARNING: failed to seal '%s' in destructor: %s "
                 "(file is consistent through byte %llu)\n",
                 path_.c_str(), e.what(),
                 static_cast<unsigned long long>(clean_size_));
  } catch (...) {
    std::fprintf(stderr,
                 "archive: WARNING: failed to seal '%s' in destructor "
                 "(unknown error; file is consistent through byte %llu)\n",
                 path_.c_str(),
                 static_cast<unsigned long long>(clean_size_));
  }
}

void ArchiveWriter::funnel_write(std::ofstream& os, const std::string& fpath,
                                 std::uint64_t* pos,
                                 std::span<const std::uint8_t> data,
                                 const char* what) {
  // check(), not trigger(): this site enacts EVERY kind itself so the
  // on-disk shape is right.  trigger()'s central kAbort would _Exit
  // inside the registry with this writer's ofstream buffer unflushed —
  // the file would end at the last checkpoint instead of mid-write, and
  // the crash drill would be testing a much kinder failure than SIGKILL.
  if (const auto f = fail::check("archive.writer.write")) {
    if (f->kind == fail::Kind::kStall) {
      std::this_thread::sleep_for(std::chrono::milliseconds(f->arg));
      // delay only; fall through to the normal write below
    } else if (f->kind == fail::Kind::kError ||
               f->kind == fail::Kind::kEnospc) {
      broken_ = true;
      throw std::runtime_error(
          std::string("archive.writer.write: injected ") +
          (f->kind == fail::Kind::kError ? "I/O error" : "ENOSPC") +
          " (failpoint)");
    } else {
      // kShort/kTorn/kAbort put a PREFIX of the buffer on disk (flushed,
      // so it is really there) before failing — the shape of a real
      // ENOSPC or power-cut mid-write — and abort then kills the process
      // outright, simulating SIGKILL between two writes.
      const std::size_t part =
          std::min<std::size_t>(data.size(),
                                f->arg > 0 ? static_cast<std::size_t>(f->arg)
                                           : 0);
      os.write(reinterpret_cast<const char*>(data.data()),
               static_cast<std::streamsize>(part));
      os.flush();
      if (f->kind == fail::Kind::kAbort) {
        std::fflush(nullptr);
        std::_Exit(fail::kAbortExitCode);
      }
      broken_ = true;
      throw std::runtime_error(
          "archive: torn write at offset " + std::to_string(*pos + part) +
          " in " + fpath + " (failpoint)");
    }
  }
  os.write(reinterpret_cast<const char*>(data.data()),
           static_cast<std::streamsize>(data.size()));
  if (!os) {
    broken_ = true;
    throw std::runtime_error(
        std::string("archive: ") + what + " failed at offset " +
        std::to_string(*pos) + " in " + fpath +
        " (disk full or I/O error; archive is consistent through byte " +
        std::to_string(clean_size_) + ")");
  }
  *pos += data.size();
}

void ArchiveWriter::raw_write(std::span<const std::uint8_t> data,
                              const char* what) {
  funnel_write(out_, path_, &offset_, data, what);
}

void ArchiveWriter::roll_shard() {
  if (shard_out_.is_open()) {
    shard_out_.flush();
    if (!shard_out_) {
      broken_ = true;
      throw std::runtime_error("archive: shard flush failed: " + shard_path_);
    }
    shard_out_.close();
  }
  const std::size_t index = shards_.size();
  shard_path_ = shard_file_name(path_, index);
  shard_out_.open(shard_path_, std::ios::binary | std::ios::trunc);
  if (!shard_out_) {
    broken_ = true;
    throw std::runtime_error("archive: cannot create shard: " + shard_path_);
  }
  shard_file_offset_ = 0;
  ByteWriter hdr;
  write_shard_header(hdr, static_cast<std::uint32_t>(index));
  funnel_write(shard_out_, shard_path_, &shard_file_offset_, hdr.view(),
               "shard header write");
  shards_.push_back(ShardEntry{shard_table_name(path_, index), 0, 0});
}

void ArchiveWriter::payload_write(std::span<const std::uint8_t> data,
                                  const char* what) {
  if (!sharded()) {
    raw_write(data, what);
    return;
  }
  // Roll before any payload that would overflow the threshold; a payload
  // never spans shards (one bigger than the threshold gets its own shard).
  if (!shard_out_.is_open() ||
      (shards_.back().size > 0 &&
       shards_.back().size + data.size() > opts_.shard_size))
    roll_shard();
  funnel_write(shard_out_, shard_path_, &shard_file_offset_, data, what);
  shards_.back().size += data.size();
  shards_.back().crc = crc32_update(shards_.back().crc, data);
  logical_offset_ += data.size();
}

void ArchiveWriter::write_checkpoint() {
  // Sharded: the shard stream must be ON DISK before the manifest
  // checkpoint that indexes it — a checkpoint must never win a race with
  // its own payload bytes.
  if (sharded() && shard_out_.is_open()) {
    shard_out_.flush();
    if (!shard_out_) {
      broken_ = true;
      throw std::runtime_error("archive: shard flush failed: " + shard_path_);
    }
  }
  ByteWriter footer;
  if (sharded()) write_shard_table(shards_, footer);
  write_footer(fields_, footer, opts_.parity_group > 0 ? kFlagParity : 0);
  ByteWriter trailer;
  trailer.put<std::uint64_t>(footer.size());
  trailer.put<std::uint32_t>(crc32(footer.view()));
  trailer.put<std::uint32_t>(sharded() ? kManifestFooterMagic : kFooterMagic);
  raw_write(footer.view(), "checkpoint footer write");
  raw_write(trailer.view(), "checkpoint trailer write");
  // Flush so a process killed after append_field() returns leaves the
  // checkpoint on disk, not in a stdio buffer.  (Media durability across
  // an OS crash would additionally need fsync; process-crash consistency
  // is the contract here.)
  out_.flush();
  if (!out_) {
    broken_ = true;
    throw std::runtime_error("archive: checkpoint flush failed at offset " +
                             std::to_string(offset_) + " in " + path_);
  }
  clean_size_ = offset_;
}

template <typename T>
void ArchiveWriter::append_impl(const std::string& name,
                                std::span<const T> data, const Dims& dims,
                                const Dims& block_dims,
                                const std::string& codec_name, double eb_abs) {
  if (finished_)
    throw std::logic_error("archive: append_field after finish()");
  if (broken_)
    throw std::runtime_error(
        "archive: writer for " + path_ + " is unusable after a write "
        "failure (file is salvageable through byte " +
        std::to_string(clean_size_) + ")");
  if (name.empty())
    throw std::invalid_argument("archive: field name must be non-empty");
  if (names_.contains(name))
    throw std::invalid_argument("archive: duplicate field name: " + name);
  if (data.size() != dims.count())
    throw std::invalid_argument("archive: data size " +
                                std::to_string(data.size()) +
                                " does not match dims " + dims.to_string());
  const CodecOps* ops = codec_by_name(codec_name);
  if (ops == nullptr)
    throw std::invalid_argument("archive: unknown codec: " + codec_name);
  constexpr bool is64 = std::is_same_v<T, double>;
  if (is64 && ops->compress64 == nullptr)
    throw std::invalid_argument("archive: codec '" + codec_name +
                                "' has no f64 path");

  const BlockGrid grid(dims, block_dims);
  const std::size_t n = grid.block_count();

  // Each block task is a complete walk+encode, so with several blocks in
  // flight block i+1's prediction pass naturally overlaps block i's
  // entropy encode — the same pipeline shape as the parallel slab codec.
  ExecPolicy block_exec = opts_.exec;
  block_exec.pool = nullptr;  // block tasks are single-threaded

  // Gather + compress + checksum every block in parallel; payloads and
  // their index entries land in order (offsets wait for the serial write).
  std::vector<std::vector<std::uint8_t>> payloads(n);
  std::vector<BlockEntry> blocks(n);
  pool_->run_batch(n, [&](std::size_t i) {
    std::array<std::size_t, kMaxDims> origin{};
    grid.block_origin(i, origin);
    const Dims be = grid.block_extents(i);
    const auto staged = std::make_unique_for_overwrite<T[]>(be.count());
    const std::span<const T> block{staged.get(), be.count()};
    const std::array<std::size_t, kMaxDims> zero{};
    copy_subcuboid(data.data(), dims,
                   std::span<const std::size_t>(origin.data(), dims.rank()),
                   staged.get(), be,
                   std::span<const std::size_t>(zero.data(), dims.rank()),
                   be.extents());
    const auto [lo, hi] = std::minmax_element(block.begin(), block.end());
    payloads[i] = codec_compress<T>(*ops, block, be, eb_abs, block_exec);
    BlockEntry& b = blocks[i];
    b.size = payloads[i].size();
    b.crc = crc32(payloads[i]);
    b.min = static_cast<double>(*lo);
    b.max = static_cast<double>(*hi);
  });

  FieldEntry f;
  f.name = name;
  f.dtype = is64 ? kDtypeF64 : kDtypeF32;
  f.codec = ops->id;
  f.eb_abs = ops->lossy ? eb_abs : 0.0;
  f.dims = dims;
  f.block_dims = grid.block();
  for (std::size_t i = 0; i < n; ++i) {
    // Sharded mode may roll to a new shard first, so the offset is only
    // known once payload_write has picked the destination.
    blocks[i].offset = payload_offset();
    payload_write(payloads[i], "block payload write");
  }
  f.blocks = std::move(blocks);
  // Parity payloads ride AFTER the field's data payloads and BEFORE the
  // checkpoint, so a checkpoint never indexes parity that is not on disk.
  if (opts_.parity_group > 0) {
    f.parity_group = opts_.parity_group;
    const std::size_t n_groups = parity_group_count(n, opts_.parity_group);
    f.parity.reserve(n_groups);
    for (std::size_t g = 0; g < n_groups; ++g) {
      const std::size_t lo = g * opts_.parity_group;
      const std::size_t hi = std::min(lo + opts_.parity_group, n);
      const std::vector<std::uint8_t> par = compute_group_parity(
          std::span<const std::vector<std::uint8_t>>(payloads.data() + lo,
                                                     hi - lo));
      ParityGroupEntry p;
      p.offset = payload_offset();
      p.size = par.size();
      p.crc = crc32(par);
      payload_write(par, "parity payload write");
      f.parity.push_back(p);
    }
  }
  names_.insert(name);  // recorded only once the append fully succeeded
  fields_.push_back(std::move(f));
  // Seal everything appended so far: a crash from here on loses nothing.
  write_checkpoint();
}

void ArchiveWriter::append_field(const std::string& name,
                                 std::span<const float> data, const Dims& dims,
                                 const Dims& block_dims,
                                 const std::string& codec_name,
                                 double eb_abs) {
  append_impl<float>(name, data, dims, block_dims, codec_name, eb_abs);
}

void ArchiveWriter::append_field(const std::string& name,
                                 std::span<const double> data,
                                 const Dims& dims, const Dims& block_dims,
                                 const std::string& codec_name,
                                 double eb_abs) {
  append_impl<double>(name, data, dims, block_dims, codec_name, eb_abs);
}

void ArchiveWriter::finish() {
  if (finished_) return;
  if (broken_)
    throw std::runtime_error(
        "archive: cannot finalize " + path_ + " after a write failure "
        "(file is salvageable through byte " + std::to_string(clean_size_) +
        "; run `sz14 archive fsck --repair`)");
  // The per-append checkpoint already sealed the file; only an archive
  // with zero appends still needs its (empty) footer written.
  if (clean_size_ != offset_) write_checkpoint();
  if (shard_out_.is_open()) {
    shard_out_.close();
    if (!shard_out_)
      throw std::runtime_error("archive: shard finalize failed: " +
                               shard_path_);
  }
  out_.close();
  if (!out_) throw std::runtime_error("archive: finalize failed: " + path_);
  finished_ = true;
}

}  // namespace sz14::archive
