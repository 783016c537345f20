// Self-healing archive tests: the opt-in XOR parity section (format
// geometry, byte-identity for parity-off files), transparent read-repair
// with its counters, degraded opens with typed hole reports, the online
// scrub + shared heal engine (including injected rewrite failures), fsck's
// repairability classification, fsck and scrub agreeing on every damage
// pattern and reading one scan plus the damaged group to repair, the
// failpoint registry listing, and the serving daemon's degraded reads +
// background scrub op.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>
#include <unistd.h>

#include "archive/archive.hpp"
#include "common/checksum.hpp"
#include "common/failpoint.hpp"
#include "data/io.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace sz14 {
namespace {

std::string tmp_path(const std::string& name) {
  return testing::TempDir() + "sza_parity_" + std::to_string(::getpid()) +
         "_" + name;
}

std::vector<float> wavy(const Dims& dims) {
  std::vector<float> v(dims.count());
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = static_cast<float>(std::sin(0.013 * static_cast<double>(i)) +
                              0.4 * std::cos(0.05 * static_cast<double>(i)));
  return v;
}

/// One-field archive: 16x12 values in 8x8 blocks = 4 blocks; with
/// `parity_group` > 0 the parity section rides along, and with
/// `shard_size` > 0 the payloads roll into shard files.
std::string make_archive(const std::string& name, std::uint32_t parity_group,
                         const Dims& dims = Dims{16, 12},
                         std::uint64_t shard_size = 0) {
  const std::string path = tmp_path(name);
  const auto v = wavy(dims);
  archive::ArchiveWriter w(
      path, {.parity_group = parity_group, .shard_size = shard_size});
  w.append_field("x", std::span<const float>(v), dims, Dims{8, 8}, "sz14",
                 1e-3);
  w.finish();
  return path;
}

void flip_byte(const std::string& path, std::size_t pos) {
  auto bytes = data::read_bytes(path);
  ASSERT_LT(pos, bytes.size());
  bytes[pos] ^= 0xFF;
  data::write_bytes(path, bytes);
}

// ------------------------------------------------------------------ format

TEST(Parity, ParityOffArchiveIsByteIdenticalAndFlagFree) {
  // parity_group = 0 must change NOTHING: same bytes as a writer that has
  // never heard of parity, flags byte zero, no parity entries.
  const std::string off = make_archive("off.sza", 0);
  const std::string off2 = make_archive("off2.sza", 0);
  EXPECT_EQ(data::read_bytes(off), data::read_bytes(off2));

  archive::ArchiveReader r(off);
  EXPECT_FALSE(r.parity_enabled());
  for (const auto& f : r.fields()) {
    EXPECT_EQ(f.parity_group, 0u);
    EXPECT_TRUE(f.parity.empty());
  }
  const std::string on = make_archive("on.sza", 2);
  EXPECT_GT(data::read_bytes(on).size(), data::read_bytes(off).size());
  std::remove(off.c_str());
  std::remove(off2.c_str());
  std::remove(on.c_str());
}

TEST(Parity, WriterEmitsOneParityPayloadPerGroup) {
  // 4 blocks, group size 3 -> ceil(4/3) = 2 groups; each parity payload is
  // as large as its biggest member and carries a valid CRC over bytes that
  // XOR the (zero-padded) members to zero.
  const std::string path = make_archive("geometry.sza", 3);
  archive::ArchiveReader r(path);
  ASSERT_TRUE(r.parity_enabled());
  const auto& f = r.field("x");
  ASSERT_EQ(f.blocks.size(), 4u);
  ASSERT_EQ(f.parity_group, 3u);
  ASSERT_EQ(f.parity.size(), 2u);

  const auto bytes = data::read_bytes(path);
  for (std::size_t g = 0; g < f.parity.size(); ++g) {
    const std::size_t lo = g * f.parity_group;
    const std::size_t hi =
        std::min<std::size_t>(lo + f.parity_group, f.blocks.size());
    std::uint64_t max_member = 0;
    for (std::size_t i = lo; i < hi; ++i)
      max_member = std::max(max_member, f.blocks[i].size);
    EXPECT_EQ(f.parity[g].size, max_member) << "group " << g;

    // parity XOR all members (zero-padded) == all zeros.
    std::vector<std::uint8_t> acc(
        bytes.begin() + static_cast<long>(f.parity[g].offset),
        bytes.begin() +
            static_cast<long>(f.parity[g].offset + f.parity[g].size));
    EXPECT_EQ(crc32(std::span<const std::uint8_t>(acc)), f.parity[g].crc);
    for (std::size_t i = lo; i < hi; ++i)
      for (std::uint64_t b = 0; b < f.blocks[i].size; ++b)
        acc[b] ^= bytes[f.blocks[i].offset + b];
    for (const std::uint8_t b : acc) ASSERT_EQ(b, 0u) << "group " << g;
  }
  std::remove(path.c_str());
}

TEST(Parity, GroupOfOneDuplicatesEachBlock) {
  // Degenerate but legal: every block is its own group, parity is a copy.
  const std::string path = make_archive("group1.sza", 1);
  archive::ArchiveReader r(path);
  const auto& f = r.field("x");
  ASSERT_EQ(f.parity.size(), f.blocks.size());
  // Any single damaged payload (data or parity) is repairable.
  std::remove(path.c_str());
}

// ------------------------------------------------------------- read-repair

TEST(Parity, ReadRepairReturnsExactValuesAndCounts) {
  const std::string path = make_archive("repair.sza", 2);
  std::vector<float> want;
  std::uint64_t target = 0;
  {
    archive::ArchiveReader probe(path);
    want = probe.read<float>("x");
    target = probe.field("x").blocks[2].offset + 3;
  }
  flip_byte(path, static_cast<std::size_t>(target));

  archive::ArchiveReader r(path);
  EXPECT_EQ(r.read<float>("x"), want);
  EXPECT_EQ(metric(r.metrics(), "crc_failures"), 1u);
  EXPECT_EQ(metric(r.metrics(), "read_repairs"), 1u);
  EXPECT_EQ(metric(r.metrics(), "unrecoverable_blocks"), 0u);
  EXPECT_EQ(metric(r.metrics(), "degraded_reads"), 0u);

  // Read-repair is transparent but NOT persistent: the on-disk bytes stay
  // damaged (scrub/fsck --repair heal them), so a second cold read repairs
  // again and the counters keep accounting.
  EXPECT_EQ(r.read<float>("x"), want);
  EXPECT_EQ(metric(r.metrics(), "read_repairs"), 2u);

  r.reset_counters();
  EXPECT_EQ(metric(r.metrics(), "crc_failures"), 0u);
  EXPECT_EQ(metric(r.metrics(), "read_repairs"), 0u);
  std::remove(path.c_str());
}

TEST(Parity, ReadDamageOverloadReportsRepairsPerCall) {
  const std::string path = make_archive("percall.sza", 2);
  std::vector<float> want;
  std::uint64_t target = 0;
  {
    archive::ArchiveReader probe(path);
    want = probe.read<float>("x");
    target = probe.field("x").blocks[0].offset;
  }
  flip_byte(path, static_cast<std::size_t>(target));

  archive::ArchiveReader r(path);
  archive::ReadDamage damage;
  EXPECT_EQ(r.read<float>("x", std::nullopt, &damage), want);
  EXPECT_EQ(damage.repaired, 1u);
  EXPECT_TRUE(damage.holes.empty());
  EXPECT_TRUE(damage.clean());  // repaired blocks are exact, not holes
  std::remove(path.c_str());
}

TEST(Parity, NoParityArchiveStillThrowsOnDamage) {
  const std::string path = make_archive("noparity.sza", 0);
  std::uint64_t target = 0;
  {
    archive::ArchiveReader probe(path);
    target = probe.field("x").blocks[1].offset;
  }
  flip_byte(path, static_cast<std::size_t>(target));

  archive::ArchiveReader r(path);
  EXPECT_THROW((void)r.read<float>("x"), archive::BlockDamagedError);
  EXPECT_EQ(metric(r.metrics(), "unrecoverable_blocks"), 1u);
  EXPECT_EQ(metric(r.metrics(), "read_repairs"), 0u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------- degraded reads

TEST(Parity, DegradedOpenZeroFillsUnrecoverableBlocks) {
  // Two damaged members in group 0 (blocks 0 and 1 under group size 2):
  // strict refuses; degraded zero-fills exactly block 0/1's region and
  // reports both holes.
  const Dims dims{16, 12};
  const std::string path = make_archive("degraded.sza", 2, dims);
  std::vector<float> want;
  std::vector<std::uint64_t> targets;
  {
    archive::ArchiveReader probe(path);
    want = probe.read<float>("x");
    targets.push_back(probe.field("x").blocks[0].offset + 1);
    targets.push_back(probe.field("x").blocks[1].offset + 1);
  }
  for (const auto t : targets) flip_byte(path, static_cast<std::size_t>(t));

  archive::ArchiveReader r(path, {.open = archive::OpenMode::kDegraded});
  archive::ReadDamage damage;
  const auto out = r.read<float>("x", std::nullopt, &damage);
  ASSERT_EQ(out.size(), want.size());
  ASSERT_EQ(damage.holes.size(), 2u);
  EXPECT_EQ(damage.holes[0].field, "x");
  EXPECT_EQ(metric(r.metrics(), "degraded_reads"), 1u);
  EXPECT_EQ(metric(r.metrics(), "unrecoverable_blocks"), 2u);

  // Blocks 0 and 1 of the 8x8 grid over 16x12 cover rows 0-7 entirely
  // (cols 0-7 and 8-11): zero-filled there, bit-exact elsewhere.
  for (std::size_t row = 0; row < 16; ++row)
    for (std::size_t col = 0; col < 12; ++col) {
      const float got = out[row * 12 + col];
      if (row < 8)
        EXPECT_EQ(got, 0.0f) << "hole at " << row << "," << col;
      else
        EXPECT_EQ(got, want[row * 12 + col]) << row << "," << col;
    }

  // Plain reads (no ReadDamage) also succeed in degraded mode.
  const auto plain = r.read<float>("x");
  EXPECT_EQ(plain, out);
  EXPECT_EQ(metric(r.metrics(), "degraded_reads"), 2u);
  std::remove(path.c_str());
}

// ------------------------------------------------------------------- scrub

TEST(Parity, ScrubCleanArchiveReportsClean) {
  const std::string path = make_archive("scrub_clean.sza", 2);
  const auto report = archive::scrub_archive(path, false, 2);
  EXPECT_TRUE(report.clean());
  EXPECT_TRUE(report.parity_enabled);
  EXPECT_EQ(report.blocks_scanned, 4u);
  EXPECT_EQ(report.parity_scanned, 2u);
  EXPECT_EQ(report.unrecoverable_payloads, 0u);
  EXPECT_FALSE(report.fully_repaired());
  const auto text = archive::format_scrub_report(report);
  EXPECT_NE(text.find("clean"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Parity, ScrubRepairHealsDataFlipBitIdentical) {
  const std::string path = make_archive("scrub_heal.sza", 2);
  const auto pristine = data::read_bytes(path);
  std::uint64_t target = 0;
  {
    archive::ArchiveReader probe(path);
    target = probe.field("x").blocks[3].offset + 5;
  }
  flip_byte(path, static_cast<std::size_t>(target));

  // Scan without repair: classified repairable, nothing touched.
  const auto scan = archive::scrub_archive(path, false, 1);
  ASSERT_EQ(scan.issues.size(), 1u);
  EXPECT_TRUE(scan.repairable());
  EXPECT_EQ(scan.unrecoverable_payloads, 0u);
  EXPECT_NE(data::read_bytes(path), pristine);

  // Repair: the archive comes back byte-identical to pristine.
  const auto report = archive::scrub_archive(path, true, 1);
  EXPECT_TRUE(report.fully_repaired());
  EXPECT_EQ(report.blocks_repaired, 1u);
  EXPECT_EQ(data::read_bytes(path), pristine);
  EXPECT_TRUE(archive::scrub_archive(path, false, 1).clean());
  std::remove(path.c_str());
}

TEST(Parity, ScrubRepairRebuildsDamagedParity) {
  // Parity-only damage: no data at risk, and --repair restores the
  // parity slot byte-identical so the group is protected again.
  const std::string path = make_archive("scrub_parity.sza", 2);
  const auto pristine = data::read_bytes(path);
  std::uint64_t target = 0;
  {
    archive::ArchiveReader probe(path);
    target = probe.field("x").parity[1].offset + 2;
  }
  flip_byte(path, static_cast<std::size_t>(target));

  const auto scan = archive::scrub_archive(path, false, 1);
  ASSERT_EQ(scan.issues.size(), 1u);
  EXPECT_TRUE(scan.issues[0].parity);
  EXPECT_TRUE(scan.repairable());

  const auto report = archive::scrub_archive(path, true, 1);
  EXPECT_TRUE(report.fully_repaired());
  EXPECT_EQ(report.parity_rebuilt, 1u);
  EXPECT_EQ(data::read_bytes(path), pristine);
  std::remove(path.c_str());
}

TEST(Parity, ScrubRewriteDropFailpointLeavesDamageReported) {
  // kDrop swallows the heal's rewrite: the re-verify must then report the
  // payload STILL damaged — a heal that lies about success would be worse
  // than no heal.
  struct DisarmAll {
    ~DisarmAll() { fail::disarm_all(); }
  } guard;
  const std::string path = make_archive("scrub_drop.sza", 2);
  std::uint64_t target = 0;
  {
    archive::ArchiveReader probe(path);
    target = probe.field("x").blocks[0].offset;
  }
  flip_byte(path, static_cast<std::size_t>(target));

  fail::arm("archive.scrub.rewrite", {fail::Kind::kDrop, 0, -1, 0});
  const auto report = archive::scrub_archive(path, true, 1);
  EXPECT_FALSE(report.fully_repaired());
  EXPECT_EQ(report.unrecoverable_payloads, 1u);
  fail::disarm_all();

  // The next scrub finishes the interrupted heal (rewrite is idempotent).
  const auto retry = archive::scrub_archive(path, true, 1);
  EXPECT_TRUE(retry.fully_repaired());
  std::remove(path.c_str());
}

TEST(Parity, ScrubTornRewriteThrowsThenRetryHeals) {
  struct DisarmAll {
    ~DisarmAll() { fail::disarm_all(); }
  } guard;
  const std::string path = make_archive("scrub_torn.sza", 2);
  const auto pristine = data::read_bytes(path);
  std::uint64_t target = 0;
  {
    archive::ArchiveReader probe(path);
    // Flip a byte BEYOND the torn-write prefix so the interrupted heal
    // leaves the block observably damaged.
    ASSERT_GT(probe.field("x").blocks[2].size, 40u);
    target = probe.field("x").blocks[2].offset + 30;
  }
  flip_byte(path, static_cast<std::size_t>(target));

  fail::arm("archive.scrub.rewrite", {fail::Kind::kTorn, 0, 1, 7});
  EXPECT_THROW((void)archive::scrub_archive(path, true, 1),
               std::runtime_error);
  fail::disarm_all();
  EXPECT_FALSE(archive::scrub_archive(path, false, 1).clean());

  const auto retry = archive::scrub_archive(path, true, 1);
  EXPECT_TRUE(retry.fully_repaired());
  EXPECT_EQ(data::read_bytes(path), pristine);
  std::remove(path.c_str());
}

// -------------------------------------------------------------------- fsck

TEST(Parity, FsckClassifiesParityDamageAndRepairs) {
  const std::string path = make_archive("fsck_heal.sza", 2);
  const auto pristine = data::read_bytes(path);
  std::uint64_t target = 0;
  {
    archive::ArchiveReader probe(path);
    target = probe.field("x").blocks[1].offset + 4;
  }
  flip_byte(path, static_cast<std::size_t>(target));

  const auto scan = archive::fsck_scan(path);
  EXPECT_FALSE(scan.clean());
  ASSERT_EQ(scan.scrub.issues.size(), 1u);
  EXPECT_FALSE(scan.scrub.issues[0].parity);
  EXPECT_EQ(scan.scrub.unrecoverable_payloads, 0u);
  EXPECT_TRUE(scan.repairable());

  const auto repaired = archive::fsck_repair(path);
  EXPECT_EQ(repaired.scrub.unrecoverable_payloads, 0u);
  EXPECT_EQ(repaired.scrub.blocks_repaired, 1u);
  EXPECT_EQ(data::read_bytes(path), pristine);
  EXPECT_TRUE(archive::fsck_scan(path).clean());
  std::remove(path.c_str());
}

TEST(Parity, FsckParityOnlyDamageIsRepairable) {
  const std::string path = make_archive("fsck_parity.sza", 2);
  std::uint64_t target = 0;
  {
    archive::ArchiveReader probe(path);
    target = probe.field("x").parity[0].offset;
  }
  flip_byte(path, static_cast<std::size_t>(target));

  const auto scan = archive::fsck_scan(path);
  ASSERT_EQ(scan.scrub.issues.size(), 1u);
  EXPECT_TRUE(scan.scrub.issues[0].parity);
  EXPECT_TRUE(scan.repairable());

  const auto repaired = archive::fsck_repair(path);
  EXPECT_EQ(repaired.scrub.unrecoverable_payloads, 0u);
  EXPECT_EQ(repaired.scrub.parity_rebuilt, 1u);
  std::remove(path.c_str());
}

TEST(Parity, FsckDoubleDamageInGroupIsUnrecoverable) {
  const std::string path = make_archive("fsck_double.sza", 2);
  std::vector<std::uint64_t> targets;
  {
    archive::ArchiveReader probe(path);
    targets.push_back(probe.field("x").blocks[0].offset);
    targets.push_back(probe.field("x").blocks[1].offset);
  }
  for (const auto t : targets) flip_byte(path, static_cast<std::size_t>(t));

  const auto scan = archive::fsck_scan(path);
  EXPECT_EQ(scan.scrub.issues.size(), 2u);
  EXPECT_EQ(scan.scrub.unrecoverable_payloads, 2u);
  EXPECT_FALSE(scan.repairable());

  // --repair refuses: the damaged bytes stay exactly in place.
  const auto before = data::read_bytes(path);
  const auto repaired = archive::fsck_repair(path);
  EXPECT_EQ(repaired.scrub.unrecoverable_payloads, 2u);
  EXPECT_EQ(repaired.scrub.blocks_repaired, 0u);
  EXPECT_EQ(data::read_bytes(path), before);
  std::remove(path.c_str());
}

TEST(Parity, FsckZeroFieldArchiveIsClean) {
  // An archive sealed with no fields at all must classify clean — not
  // crash, not report phantom damage (with or without parity enabled).
  for (const std::uint32_t pg : {0u, 4u}) {
    const std::string path = tmp_path("fsck_empty_" + std::to_string(pg));
    {
      archive::ArchiveWriter w(path,
                               {.exec = {.threads = 1}, .parity_group = pg});
      w.finish();
    }
    const auto scan = archive::fsck_scan(path);
    EXPECT_TRUE(scan.clean()) << "parity_group " << pg;
    EXPECT_EQ(scan.scrub.blocks_scanned, 0u);
    EXPECT_EQ(scan.scrub.unrecoverable_payloads, 0u);
    const auto scrub = archive::scrub_archive(path, false, 1);
    EXPECT_TRUE(scrub.clean()) << "parity_group " << pg;
    std::remove(path.c_str());
  }
}

TEST(Parity, FsckNoParityDamageIsUnrecoverable) {
  const std::string path = make_archive("fsck_noparity.sza", 0);
  std::uint64_t target = 0;
  {
    archive::ArchiveReader probe(path);
    target = probe.field("x").blocks[0].offset;
  }
  flip_byte(path, static_cast<std::size_t>(target));
  const auto scan = archive::fsck_scan(path);
  EXPECT_EQ(scan.scrub.issues.size(), 1u);
  EXPECT_EQ(scan.scrub.unrecoverable_payloads, 1u);
  EXPECT_FALSE(scan.repairable());
  std::remove(path.c_str());
}

// ------------------------------------------------- one scan, one heal rule

/// Every file an archive consists of: the container or manifest, then its
/// shards in order.
std::vector<std::vector<std::uint8_t>> archive_bytes(const std::string& path) {
  std::vector<std::vector<std::uint8_t>> out{data::read_bytes(path)};
  for (std::size_t i = 0;
       std::filesystem::exists(archive::shard_file_name(path, i)); ++i)
    out.push_back(data::read_bytes(archive::shard_file_name(path, i)));
  return out;
}

void remove_archive(const std::string& path) {
  for (std::size_t i = 0;
       std::filesystem::remove(archive::shard_file_name(path, i)); ++i) {
  }
  std::filesystem::remove(path);
}

TEST(Parity, ScrubReportsTornTailAndStillHealsPayloads) {
  // A torn tail (bytes past the sealed footer) plus one flipped data byte.
  // Scrub must not call the archive clean, must point at fsck for the
  // tail, and must still heal the payload on the salvaged checkpoint
  // without truncating anything.
  const std::string path = make_archive("scrub_tail.sza", 2);
  const auto pristine = data::read_bytes(path);
  std::size_t target = 0;
  {
    archive::ArchiveReader probe(path);
    target = static_cast<std::size_t>(probe.field("x").blocks[1].offset) + 2;
  }
  auto bytes = pristine;
  bytes[target] ^= 0xFF;
  bytes.resize(bytes.size() + 100, 0);
  data::write_bytes(path, bytes);

  const auto scan = archive::scrub_archive(path, false, 1);
  EXPECT_TRUE(scan.salvage.fallback);
  EXPECT_FALSE(scan.clean());
  EXPECT_TRUE(scan.repairable());
  ASSERT_EQ(scan.issues.size(), 1u);
  const auto text = archive::format_scrub_report(scan);
  EXPECT_NE(text.find("strict open FAILED"), std::string::npos) << text;
  EXPECT_NE(text.find("fsck --repair"), std::string::npos) << text;
  EXPECT_EQ(text.find("  clean"), std::string::npos) << text;

  const auto healed = archive::scrub_archive(path, true, 1);
  EXPECT_EQ(healed.blocks_repaired, 1u);
  EXPECT_FALSE(healed.fully_repaired());
  EXPECT_TRUE(healed.repairable());
  EXPECT_EQ(data::read_bytes(path).size(), pristine.size() + 100);

  // fsck --repair cuts the tail; the archive is pristine again.
  EXPECT_TRUE(archive::fsck_repair(path).clean());
  EXPECT_EQ(data::read_bytes(path), pristine);
  EXPECT_TRUE(archive::scrub_archive(path, false, 1).clean());
  std::remove(path.c_str());
}

TEST(Parity, RepairReadsOneScanPlusTheDamagedGroup) {
  // 64 blocks in groups of 8, one flipped data byte.  A repair may read
  // each payload once (the scan), the damaged group once (the
  // reconstruction) and a few index bytes at open — not the archive
  // again.  The stall failpoint at 0 ms counts every positional read.
  struct DisarmAll {
    ~DisarmAll() { fail::disarm_all(); }
  } guard;
  constexpr std::uint32_t kGroup = 8;
  const std::string path = make_archive("pread_bound.sza", kGroup, Dims{64, 64});
  const auto pristine = data::read_bytes(path);
  std::size_t payloads = 0;
  std::size_t target = 0;
  {
    archive::ArchiveReader probe(path);
    const auto& f = probe.field("x");
    ASSERT_GE(f.blocks.size(), 64u);
    payloads = f.blocks.size() + f.parity.size();
    target = static_cast<std::size_t>(f.blocks[20].offset) + 1;
  }
  const std::uint64_t bound = payloads + kGroup + 16;
  fail::arm("pread_file.read", {fail::Kind::kStall, 0, -1, 0});
  const auto preads = [](const auto& run) {
    const std::uint64_t before = fail::hits("pread_file.read");
    run();
    return fail::hits("pread_file.read") - before;
  };

  flip_byte(path, target);
  EXPECT_LE(preads([&] { (void)archive::scrub_archive(path, true, 1); }),
            bound);
  EXPECT_EQ(data::read_bytes(path), pristine);

  flip_byte(path, target);
  EXPECT_LE(preads([&] { (void)archive::fsck_repair(path); }), bound);
  EXPECT_EQ(data::read_bytes(path), pristine);
  std::remove(path.c_str());
}

TEST(Parity, FsckAndScrubAgreeOnEveryDamagePattern) {
  struct Flip {
    bool parity;
    std::size_t index;  ///< block index, or parity-group index
  };
  struct Pattern {
    const char* name;
    std::uint32_t parity_group;
    std::vector<Flip> flips;
    bool repairable;
  };
  const Pattern patterns[] = {
      {"clean", 8, {}, true},
      {"data", 8, {{false, 9}}, true},
      {"parity", 8, {{true, 1}}, true},
      {"two_in_group", 8, {{false, 17}, {true, 2}}, false},
      {"no_parity", 0, {{false, 5}}, false},
  };
  for (const std::uint64_t shard_size : {0u, 4096u})
    for (const Pattern& p : patterns) {
      SCOPED_TRACE(std::string(p.name) + " shard_size " +
                   std::to_string(shard_size));
      const std::string path =
          make_archive(std::string("agree_") + p.name + "_" +
                           std::to_string(shard_size),
                       p.parity_group, Dims{64, 64}, shard_size);
      const auto pristine = archive_bytes(path);
      // Flip one byte in the middle of each listed payload, through the
      // layout's own logical-to-file mapping.
      const auto damage = [&] {
        for (const Flip& flip : p.flips) {
          archive::ShardSet::Location at;
          {
            archive::ArchiveReader r(path);
            const auto& f = r.field("x");
            const auto [offset, size] =
                flip.parity ? std::pair(f.parity[flip.index].offset,
                                        f.parity[flip.index].size)
                            : std::pair(f.blocks[flip.index].offset,
                                        f.blocks[flip.index].size);
            at = r.source().locate(offset + size / 2);
          }
          flip_byte(at.path, static_cast<std::size_t>(at.offset));
        }
      };
      damage();
      if (shard_size > 0) {
        ASSERT_GT(archive_bytes(path).size(), 2u);  // several shards
      }

      const auto fsck = archive::fsck_scan(path);
      const auto scrub = archive::scrub_archive(path, false, 1);
      EXPECT_EQ(fsck.scrub.issues, scrub.issues);
      EXPECT_EQ(scrub.issues.size(), p.flips.size());
      EXPECT_EQ(fsck.scrub.unrecoverable_payloads,
                scrub.unrecoverable_payloads);
      EXPECT_EQ(scrub.unrecoverable_payloads,
                p.repairable ? 0u : p.flips.size());

      // Either repair restores a repairable archive byte for byte and
      // leaves an unrepairable one exactly as damaged.
      const auto damaged = archive_bytes(path);
      (void)archive::fsck_repair(path);
      EXPECT_EQ(archive_bytes(path), p.repairable ? pristine : damaged);
      if (p.repairable) damage();
      (void)archive::scrub_archive(path, true, 1);
      EXPECT_EQ(archive_bytes(path), p.repairable ? pristine : damaged);
      remove_archive(path);
    }
}

// -------------------------------------------------------------- failpoints

TEST(Parity, FailpointRegistryListsKnownSitesSorted) {
  const auto sites = fail::known_sites();
  ASSERT_FALSE(sites.empty());
  EXPECT_TRUE(std::is_sorted(sites.begin(), sites.end()));
  EXPECT_NE(std::find(sites.begin(), sites.end(), "archive.scrub.rewrite"),
            sites.end());
  EXPECT_NE(std::find(sites.begin(), sites.end(), "pread_file.read"),
            sites.end());
}

TEST(Parity, ArmingUnknownSiteWarnsOnStderr) {
  struct DisarmAll {
    ~DisarmAll() { fail::disarm_all(); }
  } guard;
  testing::internal::CaptureStderr();
  fail::arm("totally.bogus.site", {fail::Kind::kError, 0, -1, 0});
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("unknown failpoint site"), std::string::npos);
  EXPECT_NE(err.find("totally.bogus.site"), std::string::npos);

  testing::internal::CaptureStderr();
  fail::arm("archive.scrub.rewrite", {fail::Kind::kDrop, 0, 0, 0});
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

// ------------------------------------------------------------------- serve

serve::ServerConfig loopback_config(const std::string& name) {
  serve::ServerConfig cfg;
  cfg.transport = "loopback";
  cfg.endpoint = name;
  cfg.threads = 2;
  cfg.cache_bytes = 8u << 20;
  return cfg;
}

TEST(Parity, ServeReadRepairCountsInStats) {
  const std::string path = make_archive("serve_repair.sza", 2);
  std::vector<float> want;
  std::uint64_t target = 0;
  {
    archive::ArchiveReader probe(path);
    want = probe.read<float>("x");
    target = probe.field("x").blocks[1].offset + 2;
  }
  flip_byte(path, static_cast<std::size_t>(target));

  serve::Server server(path, loopback_config("parity_repair"));
  server.start();
  serve::Client client("loopback", server.endpoint());
  EXPECT_EQ(client.read<float>("x"), want);
  EXPECT_FALSE(client.last_read_degraded());

  const Metrics s = client.stats();
  EXPECT_EQ(metric(s, "crc_failures"), 1u);
  EXPECT_EQ(metric(s, "read_repairs"), 1u);
  EXPECT_EQ(metric(s, "unrecoverable_blocks"), 0u);
  EXPECT_EQ(metric(s, "degraded_reads"), 0u);
  server.stop();
  std::remove(path.c_str());
}

TEST(Parity, ServeDegradedModeFlagsHolesToClient) {
  const std::string path = make_archive("serve_degraded.sza", 2);
  std::vector<float> want;
  std::vector<std::uint64_t> targets;
  {
    archive::ArchiveReader probe(path);
    want = probe.read<float>("x");
    targets.push_back(probe.field("x").blocks[0].offset + 1);
    targets.push_back(probe.field("x").blocks[1].offset + 1);
  }
  for (const auto t : targets) flip_byte(path, static_cast<std::size_t>(t));

  auto cfg = loopback_config("parity_degraded");
  cfg.degraded = true;
  serve::Server server(path, cfg);
  server.start();
  serve::Client client("loopback", server.endpoint());

  const auto out = client.read<float>("x");
  ASSERT_EQ(out.size(), want.size());
  EXPECT_TRUE(client.last_read_degraded());
  std::vector<std::uint64_t> holes = client.last_read_holes();
  std::sort(holes.begin(), holes.end());
  EXPECT_EQ(holes, (std::vector<std::uint64_t>{0, 1}));

  const Metrics s = client.stats();
  EXPECT_EQ(metric(s, "unrecoverable_blocks"), 2u);
  EXPECT_EQ(metric(s, "degraded_reads"), 1u);
  server.stop();
  std::remove(path.c_str());
}

TEST(Parity, ServeWithoutDegradedRefusesDamagedReadButSurvives) {
  // Default (non-degraded) serving of an archive with an unrecoverable
  // block: the read fails remotely, the daemon stays up.
  const std::string path = make_archive("serve_strict.sza", 0);
  std::uint64_t target = 0;
  {
    archive::ArchiveReader probe(path);
    target = probe.field("x").blocks[0].offset;
  }
  flip_byte(path, static_cast<std::size_t>(target));

  serve::Server server(path, loopback_config("parity_strict"));
  server.start();
  serve::Client client("loopback", server.endpoint());
  EXPECT_THROW((void)client.read<float>("x"), serve::RemoteError);
  EXPECT_EQ(metric(client.stats(), "requests_error"), 1u);  // still answering
  server.stop();
  std::remove(path.c_str());
}

TEST(Parity, ServeBackgroundScrubRepairsArchive) {
  const std::string path = make_archive("serve_scrub.sza", 2);
  const auto pristine = data::read_bytes(path);
  std::uint64_t target = 0;
  {
    archive::ArchiveReader probe(path);
    target = probe.field("x").blocks[2].offset + 1;
  }
  flip_byte(path, static_cast<std::size_t>(target));

  serve::Server server(path, loopback_config("parity_scrub"));
  server.start();
  serve::Client client("loopback", server.endpoint());
  ASSERT_TRUE(client.scrub(/*repair=*/true));

  // Background task: poll stats until it completes (bounded).
  Metrics s;
  for (int i = 0; i < 200; ++i) {
    s = client.stats();
    if (metric(s, "scrubs_completed") >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(metric(s, "scrubs_started"), 1u);
  ASSERT_EQ(metric(s, "scrubs_completed"), 1u);
  EXPECT_EQ(metric(s, "scrub_blocks_repaired"), 1u);
  EXPECT_EQ(data::read_bytes(path), pristine);

  // A later scrub is admitted again (the single-flight latch released).
  EXPECT_TRUE(client.scrub(false));
  server.stop();
  std::remove(path.c_str());
}

TEST(Parity, ServeRejectsConcurrentScrub) {
  struct DisarmAll {
    ~DisarmAll() { fail::disarm_all(); }
  } guard;
  const std::string path = make_archive("serve_scrub_busy.sza", 2);
  std::uint64_t target = 0;
  {
    archive::ArchiveReader probe(path);
    target = probe.field("x").blocks[0].offset;
  }
  flip_byte(path, static_cast<std::size_t>(target));

  serve::Server server(path, loopback_config("parity_scrub_busy"));
  server.start();
  serve::Client client("loopback", server.endpoint());

  // Stall the heal rewrite so the first scrub holds the latch long enough
  // for the second request to be observably rejected.
  fail::arm("archive.scrub.rewrite", {fail::Kind::kStall, 0, 1, 300});
  ASSERT_TRUE(client.scrub(true));
  EXPECT_FALSE(client.scrub(true));  // busy: one scrub at a time

  Metrics s;
  for (int i = 0; i < 400; ++i) {
    s = client.stats();
    if (metric(s, "scrubs_completed") >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(metric(s, "scrubs_started"), 1u);
  EXPECT_EQ(metric(s, "scrubs_completed"), 1u);
  server.stop();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sz14
