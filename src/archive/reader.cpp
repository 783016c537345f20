#include "archive/reader.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "archive/codec.hpp"
#include "archive/parity.hpp"
#include "common/checksum.hpp"
#include "core/format.hpp"

namespace sz14::archive {
namespace {

template <typename T>
std::vector<T> codec_decompress(const CodecOps& ops,
                                std::span<const std::uint8_t> payload,
                                const Dims& block_dims, const LeadBox& box,
                                const ExecPolicy& exec) {
  if constexpr (std::is_same_v<T, float>) {
    return ops.decompress32(payload, block_dims, box, exec);
  } else {
    if (ops.decompress64 == nullptr)
      throw std::runtime_error(std::string("archive: codec '") + ops.name +
                               "' has no f64 path");
    return ops.decompress64(payload, block_dims, box, exec);
  }
}

/// Copy the intersection of block `i` (decoded, at least through the
/// region's part of the block) and the read's region into its output.
template <typename T>
void scatter_block(const BlockGrid& grid, std::size_t i,
                   const std::vector<T>& block, PartialRead<T>& r) {
  const Region& region = r.region;
  std::array<std::size_t, kMaxDims> bo{};
  grid.block_origin(i, bo);
  const Dims be = grid.block_extents(i);
  std::array<std::size_t, kMaxDims> src_origin{};  // block-local
  std::array<std::size_t, kMaxDims> dst_origin{};  // region-local
  std::array<std::size_t, kMaxDims> ext{};
  for (std::size_t a = 0; a < region.rank; ++a) {
    const std::size_t lo = std::max(bo[a], region.origin[a]);
    const std::size_t hi = std::min(bo[a] + be.extent(a),
                                    region.origin[a] + region.extent[a]);
    src_origin[a] = lo - bo[a];
    dst_origin[a] = lo - region.origin[a];
    ext[a] = hi - lo;
  }
  copy_subcuboid(block.data(), be,
                 std::span<const std::size_t>(src_origin.data(),
                                              region.rank),
                 r.out.data(), region.shape(),
                 std::span<const std::size_t>(dst_origin.data(),
                                              region.rank),
                 std::span<const std::size_t>(ext.data(), region.rank));
}

}  // namespace

std::string ArchiveReader::try_open_at(std::uint64_t end) {
  fields_.clear();
  index_.clear();
  shards_.clear();
  if (end < kSuperblockSize + kTrailerSize || end > file_.size())
    return "no room for a trailer ending at byte " + std::to_string(end);
  try {
    // Trailer.  Manifests carry their own footer magic so a manifest and
    // a single-file checkpoint can never be mistaken for each other.
    std::array<std::uint8_t, kTrailerSize> tr{};
    file_.read_at(end - kTrailerSize, tr);
    ByteReader trr(tr);
    const auto footer_size = trr.get<std::uint64_t>();
    const auto footer_crc = trr.get<std::uint32_t>();
    if (trr.get<std::uint32_t>() !=
        (manifest_ ? kManifestFooterMagic : kFooterMagic))
      return "bad footer magic (truncated or not finalized)";
    if (footer_size > end - kSuperblockSize - kTrailerSize)
      return "footer size exceeds file";

    // Footer (for a manifest: shard table, then the field footer).
    std::vector<std::uint8_t> footer(footer_size);
    file_.read_at(end - kTrailerSize - footer_size, footer);
    if (crc32(footer) != footer_crc) return "footer checksum mismatch";
    ByteReader fr(footer);
    if (manifest_) shards_ = read_shard_table(fr);
    fields_ = read_footer(fr, flags_);

    // A manifest checkpoint is only valid if every shard it names is
    // present, correctly numbered, and holds at least the recorded
    // payload bytes — otherwise salvage falls back to an older one.
    std::uint64_t payload_lo = kSuperblockSize;
    std::uint64_t payload_end = end - kTrailerSize - footer_size;
    if (manifest_) {
      ShardSet candidate;
      candidate.open_shards(file_.path(), shards_, opts_.fetch);
      payload_lo = 0;
      payload_end = candidate.logical_size();
      source_ = std::move(candidate);
    }

    // Name index (read_footer rejects duplicate names) + index sanity:
    // every payload must lie inside THIS checkpoint's payload space (for
    // a single file: between the superblock and this footer — a salvaged
    // checkpoint must not index bytes written after it; for a manifest:
    // within the shard table's logical extent).
    index_.reserve(fields_.size());
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      const auto& f = fields_[i];
      index_.emplace(f.name, i);
      for (const auto& b : f.blocks)
        // Overflow-safe: offset + size can wrap in a crafted footer.
        if (b.offset < payload_lo || b.size > payload_end ||
            b.offset > payload_end - b.size) {
          fields_.clear();
          index_.clear();
          return "block offset out of bounds in field '" + f.name + "'";
        }
      for (const auto& p : f.parity)
        if (p.offset < payload_lo || p.size > payload_end ||
            p.offset > payload_end - p.size) {
          fields_.clear();
          index_.clear();
          return "parity offset out of bounds in field '" + f.name + "'";
        }
    }
  } catch (const std::exception& e) {
    fields_.clear();
    index_.clear();
    shards_.clear();
    return e.what();
  }
  salvage_.consistent_bytes = end;
  return {};
}

namespace {

/// Little-endian byte images of kFooterMagic ("SZAF") and
/// kManifestFooterMagic ("SZMF"), the needles of the backward checkpoint
/// scan.
constexpr std::array<std::uint8_t, 4> kFooterMagicBytes = {0x53, 0x5A, 0x41,
                                                           0x46};
constexpr std::array<std::uint8_t, 4> kManifestFooterMagicBytes = {
    0x53, 0x5A, 0x4D, 0x46};

}  // namespace

ArchiveReader::ArchiveReader(const std::string& path, ReaderOptions options)
    : file_(path), opts_(options) {
  salvage_.file_bytes = file_.size();
  if (file_.size() < kSuperblockSize + kTrailerSize)
    throw std::runtime_error("archive: file too small: " + path);

  // Superblock: without a valid one there is nothing to salvage either.
  // The magic distinguishes a single-file archive from a manifest; the
  // flags byte gates the footer's parity section, so it must be known
  // before the first footer parse.
  std::array<std::uint8_t, kSuperblockSize> sb{};
  file_.read_at(0, sb);
  {
    ByteReader peek(sb);
    manifest_ = peek.get<std::uint32_t>() == kManifestMagic;
  }
  ByteReader sbr(sb);
  flags_ = manifest_ ? read_manifest_superblock(sbr) : read_superblock(sbr);

  const auto open_source = [&] {
    if (!manifest_) source_.open_single(path, opts_.fetch);
    // Block scans are front-to-back sweeps within a field; tell the
    // kernel so mapped readahead matches the access pattern.
    if (opts_.fetch == FetchMode::kMmap)
      source_.advise(0, source_.logical_size(),
                     PreadFile::Advice::kSequential);
  };

  // Fast path: the trailer at EOF (a cleanly finish()ed archive).
  std::string error = try_open_at(file_.size());
  if (error.empty()) {
    open_source();
    return;
  }
  if (opts_.open == OpenMode::kStrict)
    throw std::runtime_error("archive: " + error + ": " + path);

  // Salvage: scan backwards, in chunks, for the newest footer-magic
  // occurrence whose checkpoint validates end to end (size, CRC, parse,
  // block bounds).  A torn final checkpoint or trailing half-written
  // payloads simply fall through to the previous one.
  salvage_.detail = error;
  salvage_.fallback = true;
  const auto& needle =
      manifest_ ? kManifestFooterMagicBytes : kFooterMagicBytes;
  constexpr std::uint64_t kChunk = 64u << 10;
  // Highest position a magic could START at and still end a trailer
  // within the file.
  std::uint64_t pos_end = file_.size() - 4 + 1;
  std::vector<std::uint8_t> buf;
  while (pos_end > kSuperblockSize) {
    const std::uint64_t lo =
        pos_end > kChunk + kSuperblockSize ? pos_end - kChunk
                                           : kSuperblockSize;
    buf.resize(static_cast<std::size_t>(pos_end - lo + 3 <= file_.size() - lo
                                            ? pos_end - lo + 3
                                            : file_.size() - lo));
    file_.read_at(lo, buf);
    for (std::uint64_t p = pos_end; p-- > lo;) {
      const std::size_t off = static_cast<std::size_t>(p - lo);
      if (off + 4 > buf.size() ||
          !std::equal(needle.begin(), needle.end(),
                      buf.begin() + static_cast<std::ptrdiff_t>(off)))
        continue;
      if (try_open_at(p + 4).empty()) {
        open_source();
        return;
      }
    }
    pos_end = lo;
  }
  throw std::runtime_error("archive: no valid footer checkpoint found (" +
                           error + "): " + path);
}

std::size_t ArchiveReader::field_index(std::string_view name) const {
  const auto it = index_.find(name);
  if (it == index_.end())
    throw std::invalid_argument("archive: no such field: " +
                                std::string(name));
  return it->second;
}

const FieldEntry& ArchiveReader::field(std::string_view name) const {
  return fields_[field_index(name)];
}

Metrics ArchiveReader::metrics() const {
  const auto load = [](const std::atomic<std::uint64_t>& c) {
    return c.load(std::memory_order_relaxed);
  };
  Metrics m = {{"blocks_decoded", blocks_decoded()},
               {"crc_failures", load(crc_failures_)},
               {"read_repairs", load(read_repairs_)},
               {"unrecoverable_blocks", load(unrecoverable_blocks_)},
               {"degraded_reads", load(degraded_reads_)}};
  for (const Metrics& part : {cache_.metrics(), flight_.metrics()})
    m.insert(m.end(), part.begin(), part.end());
  return m;
}

ThreadPool& ArchiveReader::serving_pool() const {
  std::call_once(pool_once_, [this] {
    if (opts_.pool != nullptr) {
      pool_ = opts_.pool;
      return;
    }
    owned_pool_ = std::make_unique<ThreadPool>(opts_.threads);
    pool_ = owned_pool_.get();
  });
  return *pool_;
}

template <typename T>
std::vector<T> ArchiveReader::decode_block(
    const FieldEntry& f, std::size_t block_index, const Dims& block_dims,
    const LeadBox& box, const ExecPolicy& exec,
    std::atomic<std::uint64_t>* repairs) const {
  const BlockEntry& b = f.blocks[block_index];
  // Zero-copy fast path: decode straight from the mmap'd payload.  When
  // the bytes are not mapped (pread mode, map fallback, short map, or a
  // shard-spanning window), staging comes from this thread's arena slot:
  // steady-state serving preads into the same buffer every time,
  // allocation-free.
  std::span<const std::uint8_t> payload = source_.view(b.offset, b.size);
  std::unique_ptr<std::uint8_t[]> staged_own;
  if (payload.empty() && b.size > 0) {
    const std::span<std::uint8_t> staged =
        scratch_payload_or(exec.scratch, staged_own, b.size);
    source_.read_at(b.offset, staged);
    payload = staged;
  }
  std::vector<std::uint8_t> repaired;  // keeps a reconstruction alive
  if (crc32(payload) != b.crc) {
    crc_failures_.fetch_add(1, std::memory_order_relaxed);
    // Read-repair: reconstruct the payload from its parity group.  The
    // result is verified against the stored CRC inside the helper, so a
    // successful repair is exact — callers cannot tell it happened
    // except through the counters.
    auto fixed = f.parity_group > 0
                     ? reconstruct_block_payload(source_, f, block_index)
                     : std::nullopt;
    if (!fixed) {
      unrecoverable_blocks_.fetch_add(1, std::memory_order_relaxed);
      throw BlockDamagedError(
          f.name, block_index,
          f.parity_group > 0
              ? "checksum mismatch and parity reconstruction failed "
                "(second damaged member in the group?)"
              : "checksum mismatch (archive has no parity)");
    }
    read_repairs_.fetch_add(1, std::memory_order_relaxed);
    if (repairs != nullptr)
      repairs->fetch_add(1, std::memory_order_relaxed);
    repaired = std::move(*fixed);
    payload = repaired;
  }
  const CodecOps& ops = *codec_by_id(f.codec);  // validated in read_footer
  std::vector<T> block =
      codec_decompress<T>(ops, payload, block_dims, box, exec);
  blocks_decoded_.fetch_add(1, std::memory_order_relaxed);
  return block;
}

template <class T>
PartialRead<T> ArchiveReader::probe(std::string_view name,
                                    const std::optional<Region>& wanted) const {
  const std::size_t fi = field_index(name);
  const FieldEntry& f = fields_[fi];
  const Region region = wanted ? *wanted : Region::whole(f.dims);
  constexpr std::uint8_t want = std::is_same_v<T, double> ? kDtypeF64
                                                          : kDtypeF32;
  if (f.dtype != want)
    throw std::invalid_argument("archive: dtype mismatch reading field '" +
                                f.name + "'");
  if (region.rank != f.dims.rank())
    throw std::invalid_argument("archive: region rank mismatch for field '" +
                                f.name + "'");
  for (std::size_t a = 0; a < region.rank; ++a) {
    if (region.extent[a] == 0)
      throw std::invalid_argument("archive: empty region extent");
    // Overflow-safe: origin + extent can wrap for a hostile region.
    if (region.extent[a] > f.dims.extent(a) ||
        region.origin[a] > f.dims.extent(a) - region.extent[a])
      throw std::invalid_argument("archive: region exceeds field bounds on "
                                  "axis " + std::to_string(a));
  }

  // One lookup per touched block: a hit is scattered here, a miss is left
  // for decode(), which never probes again (the single-flight leader's
  // re-probe aside), so the hit/miss counters see each block once.  The
  // output is allocated on the first hit, so a probe that finds nothing
  // leaves that cost to decode() on the pool.
  PartialRead<T> r{.field = fi, .region = region, .out = {}, .misses = {}};
  const BlockGrid grid(f.dims, f.block_dims);
  for (std::size_t i = 0; i < grid.block_count(); ++i) {
    if (!grid.intersects(i, region)) continue;
    if (const auto cached = cache_.get<T>(fi, i)) {
      if (r.out.empty()) r.out.resize(region.shape().count());
      scatter_block(grid, i, *cached, r);
    } else {
      r.misses.push_back(i);
    }
  }
  return r;
}

template <class T>
void ArchiveReader::decode(PartialRead<T>& r, ReadDamage* damage) const {
  if (r.complete()) return;
  // Degraded-mode reads without a report collect holes into a local one
  // (the caller only sees zero-fill + counters).
  ReadDamage local_damage;
  if (damage == nullptr && opts_.open == OpenMode::kDegraded)
    damage = &local_damage;

  const std::size_t fi = r.field;
  const FieldEntry& f = fields_[fi];
  const Region& region = r.region;
  const BlockGrid grid(f.dims, f.block_dims);
  const std::vector<std::size_t>& misses = r.misses;
  if (r.out.empty()) r.out.resize(region.shape().count());

  // Mapped block scan: ask the kernel to fault the missed payload range
  // in ahead of the decodes (blocks of one field are laid out in append
  // order, so misses.front()..misses.back() bounds the byte range).
  if (misses.size() > 1) {
    const BlockEntry& first = f.blocks[misses.front()];
    const BlockEntry& last = f.blocks[misses.back()];
    source_.advise(first.offset, last.offset + last.size - first.offset,
                   PreadFile::Advice::kWillNeed);
  }

  // Per-read execution policy: block tasks are single-threaded (no pool).
  // Pool workers draw their buffers from the reader's arena; the calling
  // thread's share uses none, so the arena stays bounded by the pool size
  // (see the CodecScratch lifetime note).
  ThreadPool& pool = serving_pool();
  const ExecPolicy worker_exec{.scratch = &scratch_};
  const ExecPolicy caller_exec{};

  // Per-call repair tally: decode_block bumps it so the damage report can
  // say how many of THIS call's blocks were reconstructed (the member
  // counters aggregate across all calls).
  std::atomic<std::uint64_t> call_repairs{0};

  // A block that will not outlive this read (no cache to keep it, no
  // single-flight followers to share it) is decoded only over the box
  // from its origin to the region's far corner: every predictor tap
  // reaches back on every axis, so nothing past that box is needed.
  // Decided once per read, so a cache enabled mid-read never receives a
  // partial block.
  const bool coalesce = coalescing();
  const bool keep_blocks = coalesce || cache_.enabled();
  const auto box_of = [&](std::size_t i, const Dims& be) {
    LeadBox box{};
    std::array<std::size_t, kMaxDims> bo{};
    grid.block_origin(i, bo);
    for (std::size_t a = 0; a < be.rank(); ++a) {
      const std::size_t need = region.origin[a] + region.extent[a] - bo[a];
      box[a] = keep_blocks ? be.extent(a) : std::min(be.extent(a), need);
    }
    return box;
  };

  // Decode one block (size-validated) and hand it to the cache as an
  // immutable shared vector; without the cache the plain vector (only its
  // box) is scattered and dropped.  scatter_block never reads past the
  // box: it copies only the block's intersection with the region.
  const auto decode_validated = [&](std::size_t i) {
    const Dims be = grid.block_extents(i);
    const LeadBox box = box_of(i, be);
    std::vector<T> decoded = decode_block<T>(
        f, i, be, box, pool.on_worker_thread() ? worker_exec : caller_exec,
        &call_repairs);
    const std::size_t expect = box[0] * (be.count() / be.extent(0));
    if (decoded.size() != expect)
      throw std::runtime_error("archive: block " + std::to_string(i) +
                               " of field '" + f.name + "' decoded to " +
                               std::to_string(decoded.size()) +
                               " values, expected " + std::to_string(expect));
    return decoded;
  };

  const auto decode_and_scatter = [&](std::size_t i) {
    if (coalesce) {
      // Single-flight: the first thread in decodes for everyone racing on
      // this block; followers block until it publishes and share the
      // vector.  The leader must publish on EVERY path or followers hang.
      auto [entry, leader] = flight_.begin(fi, i);
      if (!leader) {
        const auto shared = std::static_pointer_cast<const std::vector<T>>(
            flight_.wait(*entry));
        scatter_block(grid, i, *shared, r);
        return;
      }
      // Leadership re-probe: a decode that finished between our cache miss
      // and begin() already populated the cache — publish that instead of
      // decoding the block a second time.
      if (const auto cached = cache_.get<T>(fi, i)) {
        flight_.publish(fi, i, *entry, cached, nullptr);
        scatter_block(grid, i, *cached, r);
        return;
      }
      std::shared_ptr<const std::vector<T>> owned;
      try {
        owned = std::make_shared<const std::vector<T>>(decode_validated(i));
      } catch (...) {
        flight_.publish(fi, i, *entry, nullptr, std::current_exception());
        throw;
      }
      cache_.put<T>(fi, i, owned);
      flight_.publish(fi, i, *entry, owned, nullptr);
      scatter_block(grid, i, *owned, r);
      return;
    }
    std::vector<T> decoded = decode_validated(i);
    if (keep_blocks) {
      const auto owned =
          std::make_shared<const std::vector<T>>(std::move(decoded));
      cache_.put<T>(fi, i, owned);
      scatter_block(grid, i, *owned, r);
    } else {
      scatter_block(grid, i, decoded, r);
    }
  };

  // Damage collection: with a report attached, an unrecoverable block is
  // a HOLE (its region of `out` stays value-initialized zero, recorded
  // under the lock — pool workers land here concurrently) instead of an
  // exception.  Holes are never cached, so a later read after a repair
  // sees fresh data.
  std::mutex hole_mutex;
  const std::size_t holes_before =
      damage != nullptr ? damage->holes.size() : 0;
  const auto decode_or_hole = [&](std::size_t t) {
    const std::size_t i = misses[t];
    if (damage == nullptr) {
      decode_and_scatter(i);
      return;
    }
    try {
      decode_and_scatter(i);
    } catch (const BlockDamagedError& e) {
      const std::lock_guard<std::mutex> lk(hole_mutex);
      damage->holes.push_back(BlockHole{f.name, e.block(),
                                        f.blocks[e.block()].offset,
                                        e.detail()});
    }
  };

  // Pipelined serving: each task preads its own payload and decodes
  // immediately, so one block's I/O overlaps another's decompression.
  // The calling thread takes its share of the blocks (the caller's share
  // uses no arena, see above), so a one-block read never leaves it.
  pool.run_batch(misses.size(), decode_or_hole);
  r.misses.clear();
  if (damage == nullptr) return;
  damage->repaired += call_repairs.load(std::memory_order_relaxed);
  if (damage->holes.size() > holes_before)
    degraded_reads_.fetch_add(1, std::memory_order_relaxed);
}

template <class T>
std::vector<T> ArchiveReader::read(std::string_view name,
                                   const std::optional<Region>& region,
                                   ReadDamage* damage) const {
  PartialRead<T> r = probe<T>(name, region);
  decode(r, damage);
  return std::move(r.out);
}

template std::vector<float> ArchiveReader::read<float>(
    std::string_view, const std::optional<Region>&, ReadDamage*) const;
template std::vector<double> ArchiveReader::read<double>(
    std::string_view, const std::optional<Region>&, ReadDamage*) const;
template PartialRead<float> ArchiveReader::probe<float>(
    std::string_view, const std::optional<Region>&) const;
template PartialRead<double> ArchiveReader::probe<double>(
    std::string_view, const std::optional<Region>&) const;
template void ArchiveReader::decode<float>(PartialRead<float>&,
                                           ReadDamage*) const;
template void ArchiveReader::decode<double>(PartialRead<double>&,
                                            ReadDamage*) const;

}  // namespace sz14::archive
