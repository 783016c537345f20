// Sharded-archive + mmap fetch-mode suite: the PR's two tentpole halves,
// exercised together and against each other.
//
//   * A manifest (.szm) + N shard files must round-trip every field
//     bit-identical to the single-file (.sza) container, through BOTH
//     fetch modes (pread and mmap), for f32 and f64, with and without
//     parity.
//   * FetchMode::kMmap is a hint, not a contract: the mapping failpoints
//     ("pread_file.mmap.map", "pread_file.mmap.fault") force fallback at
//     open and per-read, and decoded output must not change either way.
//   * Degenerate shapes — zero-field archive, single-block field, a shard
//     boundary landing exactly on a block boundary — open, fsck, scrub
//     and extract cleanly in both modes.
//   * Crash discipline carries over per shard file: a writer killed
//     mid-shard leaves a manifest that salvages to the previous
//     checkpoint, and fsck --repair truncates the manifest AND the torn
//     shard tail and removes orphan shard files, after which everything
//     sealed decodes bit-identical.
//   * Parity read-repair and scrub --repair heal damage inside the
//     correct shard file.
#include "archive/archive.hpp"

#include <gtest/gtest.h>

#if !defined(_WIN32)
#include <sys/wait.h>
#include <unistd.h>
#endif

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "archive/scrub.hpp"
#include "archive/shard.hpp"
#include "common/failpoint.hpp"
#include "core/format.hpp"

namespace sz14::archive {
namespace {

std::string tmp_path(const std::string& name) {
  return testing::TempDir() + "sza_sharded_" + std::to_string(::getpid()) +
         "_" + name;
}

std::vector<float> field_values(std::size_t n, float phase) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = std::sin(phase + 0.013f * static_cast<float>(i)) +
           0.5f * std::cos(0.041f * static_cast<float>(i));
  return v;
}

std::vector<double> field_values64(std::size_t n, double phase) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = std::sin(phase + 0.007 * static_cast<double>(i));
  return v;
}

void remove_archive_files(const std::string& path) {
  std::remove(path.c_str());
  for (std::size_t i = 0; i < 64; ++i)
    std::remove(shard_file_name(path, i).c_str());
}

struct DisarmAll {
  ~DisarmAll() { fail::disarm_all(); }
};

// ---------------------------------------------------------------------------
// Format plumbing.
// ---------------------------------------------------------------------------

TEST(Sharded, ShardFileNamesAreManifestPlusZeroPaddedIndex) {
  EXPECT_EQ(shard_table_name("/x/y/ar.szm", 0), "ar.szm.s0000");
  EXPECT_EQ(shard_table_name("ar.szm", 12), "ar.szm.s0012");
  EXPECT_EQ(shard_file_name("/x/y/ar.szm", 3), "/x/y/ar.szm.s0003");
}

TEST(Sharded, ShardTableRejectsPathQualifiedNames) {
  std::vector<ShardEntry> shards{{"../evil", 10, 0}};
  ByteWriter w;
  write_shard_table(shards, w);
  ByteReader r(w.view());
  EXPECT_THROW((void)read_shard_table(r), std::runtime_error);
}

TEST(Sharded, ShardHeaderRejectsWrongIndex) {
  ByteWriter w;
  write_shard_header(w, 2);
  ByteReader r(w.view());
  EXPECT_THROW(read_shard_header(r, 3), std::runtime_error);
}

// ---------------------------------------------------------------------------
// The options API against the deprecated positional forwarders.
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

/// Every file an archive consists of: the container or manifest, then its
/// shards in order.
std::vector<std::vector<std::uint8_t>> archive_bytes(const std::string& path) {
  std::vector<std::vector<std::uint8_t>> out{file_bytes(path)};
  for (std::size_t i = 0; std::filesystem::exists(shard_file_name(path, i));
       ++i)
    out.push_back(file_bytes(shard_file_name(path, i)));
  return out;
}

TEST(Sharded, WriterOptionsMatchPositionalForwarderByteForByte) {
  const Dims dims{48, 40};
  const Dims block{8, 8};
  const auto f32v = field_values(dims.count(), 0.7f);
  const auto f64v = field_values64(dims.count(), 0.3);
  const auto fill = [&](ArchiveWriter& w) {
    w.append_field("a32", std::span<const float>(f32v), dims, block, "sz14",
                   1e-3);
    w.append_field("b64", std::span<const double>(f64v), dims, block, "sz14",
                   1e-6);
    w.finish();
  };
  struct Config {
    const char* name;
    WriterOptions opts;
  };
  const Config configs[] = {
      {"single", {.exec = {.threads = 2}}},
      {"sharded", {.exec = {.threads = 2}, .shard_size = 4096}},
      {"parity", {.exec = {.threads = 2}, .parity_group = 4}},
      {"rans", {.exec = {.threads = 2, .entropy = EntropyBackend::kRans}}},
  };
  std::vector<std::vector<std::uint8_t>> single;
  for (const Config& c : configs) {
    SCOPED_TRACE(c.name);
    // One path for both writers: a manifest names its shard files.
    const std::string path =
        tmp_path(std::string("forwarder_") + c.name +
                 (c.opts.shard_size > 0 ? ".szm" : ".sza"));
    remove_archive_files(path);
    {
      ArchiveWriter w(path, c.opts);
      fill(w);
    }
    const auto via_options = archive_bytes(path);
    {
      ArchiveReader r(path);
      for (const auto& f : r.fields()) {
        const auto whole = Region::whole(f.dims);
        if (f.dtype == kDtypeF64)
          EXPECT_EQ(r.read<double>(f.name), r.read<double>(f.name, whole));
        else
          EXPECT_EQ(r.read<float>(f.name), r.read<float>(f.name, whole));
      }
      EXPECT_THROW((void)r.read<double>("a32"), std::invalid_argument);
      EXPECT_THROW((void)r.read<float>("b64"), std::invalid_argument);
    }
    remove_archive_files(path);
    {
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"
      ArchiveWriter w(path, c.opts.exec.threads, c.opts.exec,
                      c.opts.parity_group, c.opts.shard_size);
#pragma GCC diagnostic pop
      fill(w);
    }
    const auto via_positional = archive_bytes(path);
    remove_archive_files(path);

    ASSERT_EQ(via_options.size(), via_positional.size());
    if (c.opts.shard_size > 0) {
      EXPECT_GT(via_options.size(), 2u);
    }
    for (std::size_t i = 0; i < via_options.size(); ++i)
      EXPECT_EQ(via_options[i], via_positional[i]) << "file " << i;
    // Each configuration reaches the bytes: none writes the plain archive.
    if (single.empty()) {
      single = via_options;
    } else {
      EXPECT_NE(via_options, single);
    }
  }
}

// ---------------------------------------------------------------------------
// Round-trip identity across layout (single vs sharded) and fetch mode.
// ---------------------------------------------------------------------------

TEST(Sharded, RoundTripsBitIdenticalToSingleFileAcrossFetchModes) {
  const std::string single = tmp_path("identity.sza");
  const std::string manifest = tmp_path("identity.szm");
  const Dims dims{48, 40};
  const Dims block{16, 16};
  const auto f32v = field_values(dims.count(), 0.4f);
  const auto f64v = field_values64(dims.count(), 1.9);

  for (const std::string& path : {single, manifest}) {
    // 4 KiB shards force many rolls; 0 keeps the classic layout.
    const std::uint64_t shard_size = path == manifest ? 4096 : 0;
    ArchiveWriter w(path, {.exec = {.threads = 1},
                           .parity_group = 4,
                           .shard_size = shard_size});
    w.append_field("a32", f32v, dims, block, "sz14", 1e-3);
    w.append_field("b64", f64v, dims, block, "sz14", 1e-6);
    w.finish();
    EXPECT_EQ(w.sharded(), shard_size > 0);
    if (shard_size > 0) {
      EXPECT_GT(w.shards().size(), 1u);
    }
  }

  ArchiveReader base(single, {.threads = 1});
  EXPECT_FALSE(base.sharded());
  const auto ref32 = base.read<float>("a32");
  const auto ref64 = base.read<double>("b64");

  for (const std::string& path : {single, manifest}) {
    for (const FetchMode mode : {FetchMode::kPread, FetchMode::kMmap}) {
      ArchiveReader r(path, {.threads = 1, .fetch = mode});
      EXPECT_EQ(r.sharded(), path == manifest);
      EXPECT_EQ(r.fetch_mode(), mode);  // POSIX CI: the mapping must take
      EXPECT_EQ(r.read<float>("a32"), ref32);
      EXPECT_EQ(r.read<double>("b64"), ref64);
    }
  }

  remove_archive_files(single);
  remove_archive_files(manifest);
}

TEST(Sharded, RegionReadsMatchAcrossLayoutAndFetchMode) {
  const std::string single = tmp_path("region.sza");
  const std::string manifest = tmp_path("region.szm");
  const Dims dims{64, 64};
  const Dims block{16, 16};
  const auto vals = field_values(dims.count(), 2.2f);

  for (const std::string& path : {single, manifest}) {
    ArchiveWriter w(path, {.exec = {.threads = 1},
                           .shard_size = path == manifest ? 8192u : 0u});
    w.append_field("f", vals, dims, block, "sz14", 1e-3);
    w.finish();
  }

  Region reg;
  reg.rank = 2;
  reg.origin = {10, 22};
  reg.extent = {33, 17};
  ArchiveReader base(single, {.threads = 1});
  const auto ref = base.read<float>("f", reg);
  for (const std::string& path : {single, manifest})
    for (const FetchMode mode : {FetchMode::kPread, FetchMode::kMmap}) {
      ArchiveReader r(path, {.threads = 1, .fetch = mode});
      EXPECT_EQ(r.read<float>("f", reg), ref);
    }

  remove_archive_files(single);
  remove_archive_files(manifest);
}

// ---------------------------------------------------------------------------
// mmap is a hint: every failure path must fall back to pread, silently and
// bit-identically.
// ---------------------------------------------------------------------------

TEST(Sharded, MmapMapFailureFallsBackToPreadSilently) {
  DisarmAll guard;
  const std::string path = tmp_path("mapfail.sza");
  const Dims dims{32, 32};
  const auto vals = field_values(dims.count(), 0.9f);
  {
    ArchiveWriter w(path, {.exec = {.threads = 1}});
    w.append_field("f", vals, dims, Dims{16, 16}, "sz14", 1e-3);
    w.finish();
  }
  ArchiveReader pristine(path, {.threads = 1});
  const auto ref = pristine.read<float>("f");

  // Every mmap() attempt fails at open: the reader must come up in pread
  // mode and decode identically.
  fail::arm("pread_file.mmap.map", {fail::Kind::kError, 0, 1000, 0});
  ArchiveReader r(path, {.threads = 1, .fetch = FetchMode::kMmap});
  fail::disarm_all();
  EXPECT_EQ(r.fetch_mode(), FetchMode::kPread);
  EXPECT_EQ(r.read<float>("f"), ref);
  std::remove(path.c_str());
}

TEST(Sharded, ShortMapSurrogateStagesTailReadsThroughPread) {
  DisarmAll guard;
  const std::string path = tmp_path("shortmap.sza");
  const Dims dims{32, 32};
  const auto vals = field_values(dims.count(), 1.7f);
  {
    ArchiveWriter w(path, {.exec = {.threads = 1}});
    w.append_field("f", vals, dims, Dims{16, 16}, "sz14", 1e-3);
    w.finish();
  }
  ArchiveReader pristine(path, {.threads = 1});
  const auto ref = pristine.read<float>("f");

  // Map only the first 64 bytes (the SIGBUS-free stand-in for a mapping
  // the kernel later shrinks): every payload view beyond it comes back
  // empty and the decode stages through pread instead.
  fail::arm("pread_file.mmap.map", {fail::Kind::kShort, 0, 1000, 64});
  ArchiveReader r(path, {.threads = 1, .fetch = FetchMode::kMmap});
  fail::disarm_all();
  EXPECT_EQ(r.fetch_mode(), FetchMode::kMmap);  // mapped, just short
  EXPECT_EQ(r.read<float>("f"), ref);
  std::remove(path.c_str());
}

TEST(Sharded, PerViewFaultFallsBackToStagedReads) {
  DisarmAll guard;
  const std::string path = tmp_path("viewfault.szm");
  const Dims dims{48, 48};
  const auto vals = field_values(dims.count(), 2.8f);
  {
    ArchiveWriter w(path, {.exec = {.threads = 1}, .shard_size = 4096});
    w.append_field("f", vals, dims, Dims{16, 16}, "sz14", 1e-3);
    w.finish();
  }
  ArchiveReader pristine(path, {.threads = 1});
  const auto ref = pristine.read<float>("f");

  ArchiveReader r(path, {.threads = 1, .fetch = FetchMode::kMmap});
  ASSERT_EQ(r.fetch_mode(), FetchMode::kMmap);
  // Every view() refuses for a while mid-life — decode must transparently
  // stage those blocks and still match.
  fail::arm("pread_file.mmap.fault", {fail::Kind::kError, 0, 1000, 0});
  const auto out = r.read<float>("f");
  fail::disarm_all();
  EXPECT_EQ(out, ref);
  remove_archive_files(path);
}

// ---------------------------------------------------------------------------
// Degenerate shapes, both layouts, both fetch modes.
// ---------------------------------------------------------------------------

void expect_clean_everywhere(const std::string& path) {
  for (const FetchMode mode : {FetchMode::kPread, FetchMode::kMmap}) {
    ArchiveReader r(path, {.threads = 1, .fetch = mode});
    EXPECT_FALSE(r.salvage_info().fallback);
  }
  const FsckReport fr = fsck_scan(path);
  EXPECT_TRUE(fr.clean()) << format_fsck_report(fr);
  const ScrubReport sr = scrub_archive(path, false, 1);
  EXPECT_TRUE(sr.clean()) << format_scrub_report(sr);
}

TEST(Sharded, ZeroFieldArchiveOpensFscksAndScrubsBothLayouts) {
  for (const bool sharded : {false, true}) {
    const std::string path =
        tmp_path(sharded ? "empty.szm" : "empty.sza");
    {
      ArchiveWriter w(path, {.exec = {.threads = 1},
                             .shard_size = sharded ? 4096u : 0u});
      w.finish();
    }
    for (const FetchMode mode : {FetchMode::kPread, FetchMode::kMmap}) {
      ArchiveReader r(path, {.threads = 1, .fetch = mode});
      EXPECT_EQ(r.fields().size(), 0u);
      EXPECT_EQ(r.sharded(), sharded);
    }
    expect_clean_everywhere(path);
    remove_archive_files(path);
  }
}

TEST(Sharded, SingleBlockFieldRoundTripsBothLayoutsAndModes) {
  const Dims dims{8, 8};
  const auto vals = field_values(dims.count(), 0.1f);
  for (const bool sharded : {false, true}) {
    const std::string path =
        tmp_path(sharded ? "oneblock.szm" : "oneblock.sza");
    {
      ArchiveWriter w(path, {.exec = {.threads = 1},
                             .shard_size = sharded ? 1u << 20 : 0u});
      w.append_field("f", vals, dims, dims, "sz14", 1e-3);
      w.finish();
    }
    ArchiveReader base(path, {.threads = 1});
    ASSERT_EQ(base.fields().front().blocks.size(), 1u);
    const auto ref = base.read<float>("f");
    for (const FetchMode mode : {FetchMode::kPread, FetchMode::kMmap}) {
      ArchiveReader r(path, {.threads = 1, .fetch = mode});
      EXPECT_EQ(r.read<float>("f"), ref);
    }
    expect_clean_everywhere(path);
    remove_archive_files(path);
  }
}

TEST(Sharded, ShardBoundaryExactlyOnBlockBoundary) {
  // shard_size == first block's payload size: the roll lands exactly on a
  // block boundary, so shard 0 holds precisely one payload and block 1
  // starts shard 1 at logical offset == shard 0's size.
  const std::string probe = tmp_path("probe.sza");
  const Dims dims{32, 16};
  const Dims block{16, 16};
  const auto vals = field_values(dims.count(), 3.3f);
  std::uint64_t first_payload = 0;
  {
    ArchiveWriter w(probe, {.exec = {.threads = 1}});
    w.append_field("f", vals, dims, block, "sz14", 1e-3);
    w.finish();
    first_payload = w.fields().front().blocks.front().size;
  }
  std::remove(probe.c_str());
  ASSERT_GT(first_payload, 0u);

  const std::string path = tmp_path("exact.szm");
  {
    ArchiveWriter w(path,
                    {.exec = {.threads = 1}, .shard_size = first_payload});
    w.append_field("f", vals, dims, block, "sz14", 1e-3);
    w.finish();
    ASSERT_EQ(w.shards().size(), 2u);
    EXPECT_EQ(w.shards()[0].size, first_payload);
  }
  ArchiveReader base(path, {.threads = 1});
  const auto ref = base.read<float>("f");
  for (const FetchMode mode : {FetchMode::kPread, FetchMode::kMmap}) {
    ArchiveReader r(path, {.threads = 1, .fetch = mode});
    EXPECT_EQ(r.read<float>("f"), ref);
  }
  expect_clean_everywhere(path);
  remove_archive_files(path);
}

TEST(Sharded, OversizedPayloadGetsItsOwnShard) {
  // A payload larger than shard_size must not be split: it lands alone in
  // its own (oversized) shard.
  const std::string path = tmp_path("oversize.szm");
  const Dims dims{64, 64};
  const auto vals = field_values(dims.count(), 0.6f);
  {
    ArchiveWriter w(path, {.exec = {.threads = 1}, .shard_size = 16});
    w.append_field("f", vals, dims, Dims{32, 32}, "sz14", 1e-3);
    w.finish();
    // One shard per block payload: none could share a 16-byte budget.
    EXPECT_EQ(w.shards().size(), w.fields().front().blocks.size());
  }
  ArchiveReader r(path, {.threads = 1, .fetch = FetchMode::kMmap});
  ArchiveReader base(path, {.threads = 1});
  EXPECT_EQ(r.read<float>("f"), base.read<float>("f"));
  expect_clean_everywhere(path);
  remove_archive_files(path);
}

// ---------------------------------------------------------------------------
// Crash discipline per shard file.
// ---------------------------------------------------------------------------

#if !defined(_WIN32)
TEST(Sharded, WriterKilledMidShardSalvagesAndFsckRepairsAllFiles) {
  const std::string path = tmp_path("killed.szm");
  remove_archive_files(path);
  const Dims dims{40, 30};
  const Dims block{16, 16};
  const auto f0 = field_values(dims.count(), 0.0f);
  const auto f1 = field_values(dims.count(), 1.3f);
  const auto f2 = field_values(dims.count(), 2.9f);

  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    // Child: two sealed fields, then die on the third append's 2nd write
    // — payload bytes (and possibly a fresh shard file) are on disk with
    // no checkpoint sealing them.
    try {
      ArchiveWriter w(path, {.exec = {.threads = 1}, .shard_size = 4096});
      w.append_field("f0", f0, dims, block, "sz14", 1e-3);
      w.append_field("f1", f1, dims, block, "sz14", 1e-3);
      fail::arm("archive.writer.write", {fail::Kind::kAbort, 2, 1, 0});
      w.append_field("f2", f2, dims, block, "sz14", 1e-3);
    } catch (...) {
    }
    _exit(99);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), fail::kAbortExitCode);

  // Salvage open lands on the post-f1 checkpoint and serves both fields.
  {
    ArchiveReader r(path, {.threads = 1, .open = OpenMode::kSalvage});
    ASSERT_EQ(r.fields().size(), 2u);
    (void)r.read<float>("f0");
    (void)r.read<float>("f1");
  }

  // fsck sees the torn state: trailing manifest bytes and/or torn shard
  // tails beyond the checkpoint in use.
  FsckReport before = fsck_scan(path);
  EXPECT_TRUE(before.sharded);
  EXPECT_TRUE(before.needs_truncate());

  FsckReport after = fsck_repair(path);
  EXPECT_TRUE(after.clean()) << format_fsck_report(after);

  // Everything sealed decodes bit-identical to a pristine 2-field ingest.
  const std::string pristine_path = tmp_path("killed_pristine.szm");
  remove_archive_files(pristine_path);
  {
    ArchiveWriter w(pristine_path,
                    {.exec = {.threads = 1}, .shard_size = 4096});
    w.append_field("f0", f0, dims, block, "sz14", 1e-3);
    w.append_field("f1", f1, dims, block, "sz14", 1e-3);
    w.finish();
  }
  for (const FetchMode mode : {FetchMode::kPread, FetchMode::kMmap}) {
    ArchiveReader repaired(path, {.threads = 1, .fetch = mode});
    ArchiveReader pristine(pristine_path, {.threads = 1});
    EXPECT_FALSE(repaired.salvage_info().fallback);
    EXPECT_EQ(repaired.read<float>("f0"), pristine.read<float>("f0"));
    EXPECT_EQ(repaired.read<float>("f1"), pristine.read<float>("f1"));
  }

  remove_archive_files(path);
  remove_archive_files(pristine_path);
}
#endif  // !_WIN32

TEST(Sharded, TornManifestCheckpointFallsBackAndOrphanShardIsRemoved) {
  const std::string path = tmp_path("torn.szm");
  remove_archive_files(path);
  const Dims dims{40, 30};
  const Dims block{16, 16};
  const auto f0 = field_values(dims.count(), 0.5f);
  const auto f1 = field_values(dims.count(), 4.4f);

  std::uint64_t first_checkpoint = 0;
  {
    ArchiveWriter w(path, {.exec = {.threads = 1}, .shard_size = 4096});
    w.append_field("f0", f0, dims, block, "sz14", 1e-3);
    first_checkpoint = w.consistent_bytes();
    w.append_field("f1", f1, dims, block, "sz14", 1e-3);
    w.finish();
  }
  const std::size_t sealed_shards = [&] {
    ArchiveReader r(path, {.threads = 1});
    return r.shards().size();
  }();

  // Tear the SECOND checkpoint: chop the manifest 3 bytes into its
  // trailer.  The f1 payload bytes are still in the shard files, but no
  // valid checkpoint seals them; salvage must land on the f0 checkpoint.
  std::filesystem::resize_file(
      path, std::filesystem::file_size(path) - 3);
  // And fabricate an orphan: a shard file numbered past the table.
  {
    std::ofstream orphan(shard_file_name(path, 63),
                         std::ios::binary | std::ios::trunc);
    orphan << "garbage";
  }

  EXPECT_THROW(ArchiveReader(path, {.threads = 1}), std::runtime_error);
  {
    ArchiveReader r(path, {.threads = 1, .open = OpenMode::kSalvage});
    EXPECT_TRUE(r.salvage_info().fallback);
    EXPECT_EQ(r.salvage_info().consistent_bytes, first_checkpoint);
    ASSERT_EQ(r.fields().size(), 1u);
  }

  FsckReport before = fsck_scan(path);
  EXPECT_FALSE(before.orphan_shards.empty());
  FsckReport after = fsck_repair(path);
  EXPECT_TRUE(after.clean()) << format_fsck_report(after);
  EXPECT_GE(after.orphans_removed + after.shards_truncated, 1u);
  EXPECT_FALSE(std::filesystem::exists(shard_file_name(path, 63)));
  // The f0-only archive may legitimately index fewer shards than the
  // sealed two-field one did.
  {
    ArchiveReader r(path, {.threads = 1});
    EXPECT_LE(r.shards().size(), sealed_shards);
    ASSERT_EQ(r.fields().size(), 1u);
    (void)r.read<float>("f0");
  }

  remove_archive_files(path);
}

// ---------------------------------------------------------------------------
// Parity heal lands in the correct shard file.
// ---------------------------------------------------------------------------

TEST(Sharded, BitFlipInShardIsReadRepairedAndScrubHealsOnDisk) {
  const std::string path = tmp_path("flip.szm");
  remove_archive_files(path);
  const Dims dims{48, 40};
  const Dims block{16, 16};
  const auto vals = field_values(dims.count(), 1.1f);
  {
    ArchiveWriter w(path, {.exec = {.threads = 1},
                           .parity_group = 4,
                           .shard_size = 4096});
    w.append_field("f", vals, dims, block, "sz14", 1e-3);
    w.finish();
  }
  ArchiveReader pristine(path, {.threads = 1});
  const auto ref = pristine.read<float>("f");
  const BlockEntry& victim = pristine.fields().front().blocks[3];

  // Flip one byte in the middle of block 3's payload, going through the
  // logical address space so the damage lands in whichever shard file
  // actually holds it.
  {
    const ShardSet& src = pristine.source();
    const ShardSet::Location loc =
        src.locate(victim.offset + victim.size / 2);
    std::fstream f(loc.path,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(static_cast<std::streamoff>(loc.offset));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(static_cast<std::streamoff>(loc.offset));
    f.write(&byte, 1);
  }

  // Read-repair: both fetch modes reconstruct through parity in memory.
  for (const FetchMode mode : {FetchMode::kPread, FetchMode::kMmap}) {
    ArchiveReader r(path, {.threads = 1, .fetch = mode});
    EXPECT_EQ(r.read<float>("f"), ref);
    EXPECT_GE(metric(r.metrics(), "read_repairs"), 1u);
  }

  // scrub --repair heals the shard file itself.
  const ScrubReport sr = scrub_archive(path, true, 1);
  EXPECT_EQ(sr.blocks_repaired, 1u) << format_scrub_report(sr);
  const ScrubReport clean = scrub_archive(path, false, 1);
  EXPECT_TRUE(clean.clean()) << format_scrub_report(clean);

  remove_archive_files(path);
}

// ---------------------------------------------------------------------------
// Error attribution: path AND offset in every read error.
// ---------------------------------------------------------------------------

TEST(Sharded, ReadErrorsNamePathAndOffset) {
  DisarmAll guard;
  const std::string path = tmp_path("err.bin");
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    std::vector<char> data(1024, 'x');
    f.write(data.data(), static_cast<std::streamsize>(data.size()));
  }
  PreadFile file(path);
  std::vector<std::uint8_t> buf(64);
  fail::arm("pread_file.read", {fail::Kind::kError, 0, 1, 0});
  try {
    file.read_at(512, buf);
    FAIL() << "injected read error did not throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("offset 512"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

TEST(Sharded, ShardSetPastEndReadNamesLogicalOffset) {
  const std::string path = tmp_path("past.szm");
  remove_archive_files(path);
  {
    ArchiveWriter w(path, {.exec = {.threads = 1}, .shard_size = 4096});
    w.append_field("f", field_values(256, 0.2f), Dims{16, 16}, Dims{16, 16},
                   "sz14", 1e-3);
    w.finish();
  }
  ArchiveReader r(path, {.threads = 1});
  const ShardSet& src = r.source();
  std::vector<std::uint8_t> buf(16);
  try {
    src.read_at(src.logical_size() - 8, buf);
    FAIL() << "past-end read did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("logical offset"),
              std::string::npos)
        << e.what();
  }
  remove_archive_files(path);
}

// ---------------------------------------------------------------------------
// Failpoint registry: the new mmap sites are known (armable without the
// unknown-site warning).
// ---------------------------------------------------------------------------

TEST(Sharded, MmapFailpointSitesAreRegistered) {
  const auto sites = fail::known_sites();
  const auto has = [&](std::string_view s) {
    for (const auto& k : sites)
      if (k == s) return true;
    return false;
  };
  EXPECT_TRUE(has("pread_file.mmap.map"));
  EXPECT_TRUE(has("pread_file.mmap.fault"));
}

}  // namespace
}  // namespace sz14::archive
