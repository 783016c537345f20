// Robustness / failure-injection tests: malformed, truncated, and
// bit-flipped streams must throw std::runtime_error (or reconstruct
// silently for flips the format cannot detect) — never crash, hang, or
// read out of bounds.  Run under the normal test harness; combined with
// the bounds-checked ByteReader/BitReader these are the library's
// fuzzing-lite safety net.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <unistd.h>

#include "archive/archive.hpp"
#include "baselines/registry.hpp"
#include "common/rng.hpp"
#include "core/compressor.hpp"
#include "core/snapshot.hpp"
#include "data/generators.hpp"
#include "data/io.hpp"
#include "encoding/deflate_like.hpp"
#include "parallel/parallel_codec.hpp"

namespace sz14 {
namespace {

/// Decode attempts must either succeed or throw a std::exception subclass.
template <typename Fn>
void must_not_crash(Fn&& fn) {
  try {
    fn();
  } catch (const std::exception&) {
    // Fine: malformed input detected.
  }
}

std::vector<std::uint8_t> valid_stream() {
  const auto f = data::climate2d(24, 24);
  Options opts;
  opts.eb_abs = 0.01;
  return compress(f.values, f.dims, opts);
}

TEST(Robustness, EveryTruncationOfCoreStreamIsHandled) {
  const auto stream = valid_stream();
  for (std::size_t len = 0; len < stream.size(); ++len) {
    std::vector<std::uint8_t> cut(stream.begin(),
                                  stream.begin() + static_cast<long>(len));
    EXPECT_THROW((void)decompress(cut), std::runtime_error)
        << "truncation at " << len;
  }
}

TEST(Robustness, SingleByteCorruptionNeverCrashes) {
  const auto stream = valid_stream();
  Rng rng(7);
  for (int trial = 0; trial < 300; ++trial) {
    auto copy = stream;
    const std::size_t pos = rng.below(copy.size());
    copy[pos] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    must_not_crash([&] { (void)decompress(copy); });
  }
}

TEST(Robustness, RandomGarbageNeverCrashes) {
  Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> junk(rng.below(2048));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.below(256));
    must_not_crash([&] { (void)decompress(junk); });
    must_not_crash([&] { (void)decompress64(junk); });
    must_not_crash([&] { (void)snapshot_list(junk); });
    must_not_crash([&] { (void)parallel_decompress(junk, {.threads = 2}); });
    must_not_crash([&] { (void)deflate_like_decompress(junk); });
  }
}

TEST(Robustness, GarbageWithValidMagicNeverCrashes) {
  // Harder case: correct magic + version, garbage after.
  Rng rng(13);
  const auto seed = valid_stream();
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> junk(seed.begin(), seed.begin() + 6);
    const std::size_t extra = rng.below(512);
    for (std::size_t i = 0; i < extra; ++i)
      junk.push_back(static_cast<std::uint8_t>(rng.below(256)));
    must_not_crash([&] { (void)decompress(junk); });
  }
}

TEST(Robustness, BaselineDecodersSurviveCorruption) {
  const auto f = data::climate2d(24, 24);
  Rng rng(17);
  for (auto& codec : baselines::make_all_compressors()) {
    const auto stream = codec->compress(f.values, f.dims, 0.05);
    for (int trial = 0; trial < 100; ++trial) {
      auto copy = stream;
      const std::size_t pos = rng.below(copy.size());
      copy[pos] ^= static_cast<std::uint8_t>(1 + rng.below(255));
      must_not_crash([&] { (void)codec->decompress(copy); });
    }
    for (std::size_t len : {std::size_t{0}, stream.size() / 3,
                            stream.size() - 1}) {
      std::vector<std::uint8_t> cut(stream.begin(),
                                    stream.begin() + static_cast<long>(len));
      must_not_crash([&] { (void)codec->decompress(cut); });
    }
  }
}

std::vector<std::uint8_t> valid_rans_stream() {
  const auto f = data::climate2d(24, 24);
  Options opts;
  opts.eb_abs = 0.01;
  opts.exec.entropy = EntropyBackend::kRans;
  return compress(f.values, f.dims, opts);
}

TEST(Robustness, EveryTruncationOfRansStreamIsHandled) {
  // Unlike Huffman, a degenerate rANS payload can be near-empty for any
  // symbol count, so the decoder leans on explicit state/limit validation;
  // every prefix must still throw cleanly.
  const auto stream = valid_rans_stream();
  for (std::size_t len = 0; len < stream.size(); ++len) {
    std::vector<std::uint8_t> cut(stream.begin(),
                                  stream.begin() + static_cast<long>(len));
    EXPECT_THROW((void)decompress(cut), std::runtime_error)
        << "truncation at " << len;
  }
}

TEST(Robustness, RansStreamFullFlipSweepNeverCrashes) {
  // Deterministic full sweep: every byte of the stream (header, frequency
  // table, payload) flipped, decode must throw or produce a well-formed
  // result — never overread (ASan/UBSan are the real assertion here).
  const auto stream = valid_rans_stream();
  for (std::size_t pos = 0; pos < stream.size(); ++pos) {
    auto copy = stream;
    copy[pos] ^= 0x6D;
    must_not_crash([&] { (void)decompress(copy); });
  }
}

TEST(Robustness, CorruptHuffmanTableSweep) {
  // The multi-symbol lookup table is built from the serialized code
  // lengths; corrupting that region must be rejected at table build (or
  // decode garbage safely), in the chained fast path and the bitwise
  // long-code fallback alike.  The table region starts right after the
  // fixed header, so sweep the front of the stream through several flip
  // patterns.
  const auto stream = valid_stream();
  const std::size_t sweep = std::min<std::size_t>(stream.size(), 192);
  for (const std::uint8_t flip : {0x01, 0xFF, 0x80, 0x55}) {
    for (std::size_t pos = 0; pos < sweep; ++pos) {
      auto copy = stream;
      copy[pos] ^= flip;
      must_not_crash([&] { (void)decompress(copy); });
    }
  }
}

TEST(Robustness, HeaderFieldFuzzing) {
  // Mutate each header byte through all 256 values; decode must never
  // crash.  (The header is the highest-leverage corruption target: rank,
  // dtype, extents, interval bits all steer allocation.)
  const auto stream = valid_stream();
  const std::size_t header_bytes = std::min<std::size_t>(24, stream.size());
  for (std::size_t pos = 0; pos < header_bytes; ++pos) {
    for (int v = 0; v < 256; ++v) {
      auto copy = stream;
      copy[pos] = static_cast<std::uint8_t>(v);
      must_not_crash([&] { (void)decompress(copy); });
    }
  }
}

// ---------------------------------------------------- archive (.sza) files

/// Scratch path private to this process, so concurrent runs never share.
std::string robust_path(const std::string& name) {
  return testing::TempDir() + "sza_robust_" + std::to_string(::getpid()) +
         "_" + name;
}

/// A small two-field archive (lossy sz14 + lossless gzip_like) whose
/// payload layout is probed via a pristine reader.
std::string make_small_archive(const std::string& name) {
  const std::string path = robust_path(name);
  const Dims dims{16, 12};
  std::vector<float> v(dims.count());
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = std::sin(0.05f * static_cast<float>(i));
  archive::ArchiveWriter w(path);
  w.append_field("lossy", std::span<const float>(v), dims, Dims{8, 8}, "sz14",
                 1e-3);
  w.append_field("exact", std::span<const float>(v), dims, Dims{8, 8},
                 "gzip_like", 0.0);
  w.finish();
  return path;
}

TEST(Robustness, EveryTruncationOfArchiveContainerOpensPrefixOrRejects) {
  // With per-append footer checkpoints the sweep has three regimes instead
  // of "every prefix is rejected":
  //   * strict open succeeds ONLY at an exact checkpoint boundary, and the
  //     archive it sees is the fully-checkpointed field prefix,
  //     bit-identical;
  //   * salvage open recovers that newest prefix from ANY cut at or beyond
  //     the first checkpoint;
  //   * everything earlier is cleanly rejected.
  // No truncation length may crash or hang in either mode.
  const std::string path = robust_path("trunc.sza");
  const Dims dims{16, 12};
  std::vector<float> v(dims.count());
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = std::sin(0.05f * static_cast<float>(i));
  const std::vector<std::string> names = {"lossy", "exact"};
  std::vector<std::uint64_t> ckpt;  // consistent_bytes() after each append
  {
    archive::ArchiveWriter w(path);
    w.append_field(names[0], std::span<const float>(v), dims, Dims{8, 8},
                   "sz14", 1e-3);
    ckpt.push_back(w.consistent_bytes());
    w.append_field(names[1], std::span<const float>(v), dims, Dims{8, 8},
                   "gzip_like", 0.0);
    ckpt.push_back(w.consistent_bytes());
    w.finish();
  }
  std::vector<std::vector<float>> want;
  {
    archive::ArchiveReader pristine(path);
    for (const auto& n : names) want.push_back(pristine.read<float>(n));
  }
  const auto bytes = data::read_bytes(path);
  ASSERT_GT(bytes.size(), archive::kSuperblockSize + archive::kTrailerSize);
  // finish() after per-append checkpoints adds no extra bytes: the final
  // checkpoint IS the sealed footer.
  ASSERT_EQ(ckpt.back(), bytes.size());

  const std::string cut_path = path + ".cut";
  for (std::size_t len = 0; len <= bytes.size(); ++len) {
    data::write_bytes(cut_path,
                      std::vector<std::uint8_t>(bytes.begin(),
                                                bytes.begin() +
                                                    static_cast<long>(len)));
    const std::size_t n_ok = static_cast<std::size_t>(
        std::count_if(ckpt.begin(), ckpt.end(),
                      [&](std::uint64_t c) { return c <= len; }));
    const bool at_boundary =
        std::find(ckpt.begin(), ckpt.end(), len) != ckpt.end();

    if (at_boundary) {
      archive::ArchiveReader r(cut_path);
      EXPECT_FALSE(r.salvage_info().fallback);
      ASSERT_EQ(r.fields().size(), n_ok) << "truncation at " << len;
      for (std::size_t i = 0; i < n_ok; ++i)
        EXPECT_EQ(r.read<float>(names[i]), want[i])
            << "field " << names[i] << " at truncation " << len;
    } else {
      EXPECT_THROW(archive::ArchiveReader{cut_path}, std::runtime_error)
          << "strict open at truncation " << len << " of " << bytes.size();
    }

    if (n_ok > 0) {
      archive::ArchiveReader r(cut_path, {.open = archive::OpenMode::kSalvage});
      EXPECT_EQ(r.salvage_info().fallback, !at_boundary);
      EXPECT_EQ(r.salvage_info().consistent_bytes, ckpt[n_ok - 1])
          << "truncation at " << len;
      ASSERT_EQ(r.fields().size(), n_ok) << "truncation at " << len;
      for (std::size_t i = 0; i < n_ok; ++i)
        EXPECT_EQ(r.read<float>(names[i]), want[i])
            << "salvaged field " << names[i] << " at truncation " << len;
    } else {
      EXPECT_THROW(
          (archive::ArchiveReader{cut_path,
                                  {.open = archive::OpenMode::kSalvage}}),
          std::runtime_error)
          << "salvage open at truncation " << len;
    }
  }
  std::remove(cut_path.c_str());
  std::remove(path.c_str());
}

TEST(Robustness, ArchiveSingleByteCorruptionNeverCrashesAndCrcCatchesPayload) {
  const std::string path = make_small_archive("flip.sza");
  const auto bytes = data::read_bytes(path);

  // Payload extents from a pristine reader, for the targeted assertion.
  struct Span {
    std::size_t lo, hi;
    std::string field;
  };
  std::vector<Span> payloads;
  {
    archive::ArchiveReader probe(path);
    for (const auto& f : probe.fields())
      for (const auto& b : f.blocks)
        payloads.push_back({static_cast<std::size_t>(b.offset),
                            static_cast<std::size_t>(b.offset + b.size),
                            f.name});
  }

  const std::string flip_path = path + ".flip";
  Rng rng(23);
  for (int trial = 0; trial < 200; ++trial) {
    auto copy = bytes;
    const std::size_t pos = rng.below(copy.size());
    copy[pos] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    data::write_bytes(flip_path, copy);

    const auto in_payload =
        std::find_if(payloads.begin(), payloads.end(), [&](const Span& s) {
          return pos >= s.lo && pos < s.hi;
        });
    if (in_payload != payloads.end()) {
      // A payload flip leaves the footer intact: the open succeeds and the
      // block CRC must catch the damage on read — silence is a bug.
      archive::ArchiveReader r(flip_path);
      EXPECT_THROW((void)r.read<float>(in_payload->field), std::runtime_error)
          << "undetected payload flip at byte " << pos;
    } else {
      // Superblock/footer/trailer flips: open (or any read) may throw, but
      // must never crash.
      must_not_crash([&] {
        archive::ArchiveReader r(flip_path);
        for (const auto& f : r.fields()) (void)r.read<float>(f.name);
      });
    }
    // Salvage mode must survive the same flip: a damaged final footer
    // falls back to the mid-file checkpoint (only the first field), a
    // payload flip is still caught by the block CRC on read — and nothing
    // may crash.
    must_not_crash([&] {
      archive::ArchiveReader r(flip_path,
                               {.open = archive::OpenMode::kSalvage});
      for (const auto& f : r.fields())
        must_not_crash([&] { (void)r.read<float>(f.name); });
    });
  }
  std::remove(flip_path.c_str());
  std::remove(path.c_str());
}

/// Parity-enabled sibling of make_small_archive: same two fields, 4-block
/// parity groups.
std::string make_parity_archive(const std::string& name) {
  const std::string path = robust_path(name);
  const Dims dims{16, 12};
  std::vector<float> v(dims.count());
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = std::sin(0.05f * static_cast<float>(i));
  archive::ArchiveWriter w(path, {.parity_group = 4});
  w.append_field("lossy", std::span<const float>(v), dims, Dims{8, 8}, "sz14",
                 1e-3);
  w.append_field("exact", std::span<const float>(v), dims, Dims{8, 8},
                 "gzip_like", 0.0);
  w.finish();
  return path;
}

TEST(Robustness, ArchiveParityFlipSweepEveryPayloadFlipReadRepairs) {
  // The parity-enabled twin of the flip sweep above: a single corrupted
  // byte inside ANY data payload must now be reconstructed transparently —
  // the read succeeds bit-identical to the pristine archive and the
  // repair counters account for it.  Flips outside the payloads must
  // still never crash in any mode.
  const std::string path = make_parity_archive("parity_flip.sza");
  const auto bytes = data::read_bytes(path);

  struct Span {
    std::size_t lo, hi;
    std::string field;
  };
  std::vector<Span> payloads;   // data blocks
  std::vector<Span> parities;   // parity payloads
  std::vector<std::string> names;
  std::vector<std::vector<float>> want;
  {
    archive::ArchiveReader probe(path);
    ASSERT_TRUE(probe.parity_enabled());
    for (const auto& f : probe.fields()) {
      names.push_back(f.name);
      want.push_back(probe.read<float>(f.name));
      for (const auto& b : f.blocks)
        payloads.push_back({static_cast<std::size_t>(b.offset),
                            static_cast<std::size_t>(b.offset + b.size),
                            f.name});
      ASSERT_EQ(f.parity_group, 4u);
      ASSERT_FALSE(f.parity.empty());
      for (const auto& p : f.parity)
        parities.push_back({static_cast<std::size_t>(p.offset),
                            static_cast<std::size_t>(p.offset + p.size),
                            f.name});
    }
  }

  const auto find_span = [](const std::vector<Span>& spans, std::size_t pos) {
    return std::find_if(spans.begin(), spans.end(), [&](const Span& s) {
      return pos >= s.lo && pos < s.hi;
    });
  };

  const std::string flip_path = path + ".flip";
  Rng rng(41);
  for (int trial = 0; trial < 200; ++trial) {
    auto copy = bytes;
    const std::size_t pos = rng.below(copy.size());
    copy[pos] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    data::write_bytes(flip_path, copy);

    if (find_span(payloads, pos) != payloads.end()) {
      // Data payload flip: read-repair must hand back the exact pristine
      // values, strict mode, no exception.
      archive::ArchiveReader r(flip_path);
      for (std::size_t i = 0; i < names.size(); ++i)
        EXPECT_EQ(r.read<float>(names[i]), want[i])
            << "read-repair failed for flip at byte " << pos;
      EXPECT_GE(metric(r.metrics(), "crc_failures"), 1u) << "flip at byte " << pos;
      EXPECT_GE(metric(r.metrics(), "read_repairs"), 1u) << "flip at byte " << pos;
      EXPECT_EQ(metric(r.metrics(), "unrecoverable_blocks"), 0u) << "flip at byte " << pos;
    } else if (find_span(parities, pos) != parities.end()) {
      // Parity payload flip: data is intact, plain reads never consult
      // parity — everything reads clean with zero repairs.
      archive::ArchiveReader r(flip_path);
      for (std::size_t i = 0; i < names.size(); ++i)
        EXPECT_EQ(r.read<float>(names[i]), want[i])
            << "parity flip at byte " << pos;
      EXPECT_EQ(metric(r.metrics(), "read_repairs"), 0u) << "parity flip at byte " << pos;
    } else {
      // Superblock/footer/trailer flips: may throw, must never crash.
      must_not_crash([&] {
        archive::ArchiveReader r(flip_path);
        for (const auto& f : r.fields()) (void)r.read<float>(f.name);
      });
    }
    must_not_crash([&] {
      archive::ArchiveReader r(flip_path,
                               {.open = archive::OpenMode::kSalvage});
      for (const auto& f : r.fields())
        must_not_crash([&] { (void)r.read<float>(f.name); });
    });
  }
  std::remove(flip_path.c_str());
  std::remove(path.c_str());
}

TEST(Robustness, ArchiveParityDoubleFlipInOneGroupNeverMisRepairs) {
  // Two damaged members of one parity group are beyond single parity.
  // The reader must REFUSE (typed error, counted unrecoverable), not
  // hand back wrong bytes; scrub --repair must leave both untouched.
  const std::string path = make_parity_archive("parity_double.sza");
  auto bytes = data::read_bytes(path);

  struct Hit {
    std::size_t pos;
    std::size_t block;
  };
  std::vector<Hit> group0;  // two data blocks of field "lossy", group 0
  std::vector<std::vector<float>> want;
  std::vector<std::string> names;
  {
    archive::ArchiveReader probe(path);
    for (const auto& f : probe.fields()) {
      names.push_back(f.name);
      want.push_back(probe.read<float>(f.name));
    }
    const auto& f = probe.field("lossy");
    ASSERT_GE(f.blocks.size(), 2u);
    group0.push_back({static_cast<std::size_t>(f.blocks[0].offset) + 1, 0});
    group0.push_back({static_cast<std::size_t>(f.blocks[1].offset) + 1, 1});
  }
  for (const auto& h : group0) bytes[h.pos] ^= 0xFF;
  data::write_bytes(path, bytes);

  // Strict read: typed refusal naming a damaged block of the group.
  {
    archive::ArchiveReader r(path);
    try {
      (void)r.read<float>("lossy");
      FAIL() << "double-damaged group read did not throw";
    } catch (const archive::BlockDamagedError& e) {
      EXPECT_EQ(e.field_name(), "lossy");
      EXPECT_LT(e.block(), 2u);
    }
    EXPECT_GE(metric(r.metrics(), "unrecoverable_blocks"), 1u);
    EXPECT_EQ(metric(r.metrics(), "read_repairs"), 0u);
    // The undamaged field still reads exactly.
    EXPECT_EQ(r.read<float>("exact"),
              want[std::find(names.begin(), names.end(), "exact") -
                   names.begin()]);
  }

  // Degraded read: zero-filled holes at exactly the damaged blocks.
  {
    archive::ArchiveReader r(path, {.open = archive::OpenMode::kDegraded});
    archive::ReadDamage damage;
    const auto out = r.read<float>("lossy", std::nullopt, &damage);
    ASSERT_EQ(damage.holes.size(), 2u);
    EXPECT_EQ(damage.holes[0].block + damage.holes[1].block, 1u);
    EXPECT_EQ(out.size(), want[0].size());
  }

  // scrub --repair: refuses to touch the group, reports it unrecoverable,
  // and the on-disk bytes stay exactly as damaged (never mis-repaired).
  const auto before = data::read_bytes(path);
  const auto report = archive::scrub_archive(path, /*repair=*/true, 1);
  EXPECT_EQ(report.unrecoverable_payloads, 2u);
  EXPECT_FALSE(report.fully_repaired());
  EXPECT_EQ(report.blocks_repaired, 0u);
  EXPECT_EQ(data::read_bytes(path), before);
  std::remove(path.c_str());
}

TEST(Robustness, ArchiveGarbageFilesRejected) {
  const std::string path = robust_path("garbage.sza");
  Rng rng(31);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::uint8_t> junk(rng.below(4096));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.below(256));
    data::write_bytes(path, junk);
    must_not_crash([&] { archive::ArchiveReader r(path); });
    must_not_crash([&] {
      archive::ArchiveReader r(path, {.open = archive::OpenMode::kSalvage});
    });
  }
  std::remove(path.c_str());
}

TEST(Robustness, OversizedDimsAreRejectedNotAllocated) {
  // A stream claiming absurd extents must throw before attempting the
  // allocation (count*sizeof(float) would be petabytes).
  auto stream = valid_stream();
  // Header: magic(4) version(1) dtype(1) flags(1) rank(1) then extents.
  // Overwrite the first extent varint with a huge value: 5 bytes
  // 0xFF 0xFF 0xFF 0xFF 0x7F ~ 3.4e10.
  ASSERT_GT(stream.size(), 14u);
  stream[8] = 0xFF;
  stream[9] = 0xFF;
  stream[10] = 0xFF;
  stream[11] = 0xFF;
  stream[12] = 0x7F;
  // Must be rejected by a validation error (any library exception type),
  // never by actually attempting the petabyte-scale allocation.
  EXPECT_THROW((void)decompress(stream), std::exception);
}

}  // namespace
}  // namespace sz14
