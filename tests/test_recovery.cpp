// Crash-recovery suite: the writer's checkpoint discipline and the fsck
// scan/repair path, driven deterministically through the failpoint
// registry instead of waiting for real disks to fail.
//
//   * A writer process killed mid-append (fork + the abort failpoint, the
//     same SZ14_FAILPOINTS mechanism the CI smoke uses) leaves a file that
//     fsck --repair truncates back to the last checkpoint, after which a
//     strict open recovers every completed field bit-identical — the PR's
//     acceptance scenario, run end to end in-process.
//   * Injected ENOSPC / torn writes mid-append mark the writer broken()
//     (further appends refuse), while the on-disk prefix up to
//     consistent_bytes() stays salvageable.
//   * fsck_scan distinguishes the two damage classes: trailing garbage
//     (repairable by truncation) vs CRC-corrupt payloads inside the
//     consistent region (reported, never "repaired" away).
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
#include <string>
#include <vector>

#include "common/failpoint.hpp"
#include "core/format.hpp"

namespace sz14::archive {
namespace {

std::string tmp_path(const std::string& name) {
  return testing::TempDir() + "sza_recovery_" + name;
}

std::vector<float> field_values(std::size_t n, float phase) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = std::sin(phase + 0.017f * static_cast<float>(i)) +
           0.25f * std::cos(0.05f * static_cast<float>(i));
  return v;
}

struct DisarmAll {
  ~DisarmAll() { fail::disarm_all(); }
};

// ---------------------------------------------------------------------------
// The acceptance scenario: kill the writer after N complete appends, then
// recover all N fields bit-identical via salvage-open and fsck --repair.
// ---------------------------------------------------------------------------

#if !defined(_WIN32)
TEST(Recovery, WriterKilledMidAppendRecoversAllSealedFieldsBitIdentical) {
  const std::string path = tmp_path("killed.sza");
  const Dims dims{40, 30};
  const Dims block{16, 16};
  const auto f0 = field_values(dims.count(), 0.0f);
  const auto f1 = field_values(dims.count(), 1.3f);
  const auto f2 = field_values(dims.count(), 2.9f);

  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    // Child: two clean appends, then arm the abort failpoint to kill the
    // process at the THIRD write of field #3 — two of its block payloads
    // are really on disk past the checkpoint, the deterministic stand-in
    // for SIGKILL / power loss mid-ingest.  (skip=0 would die before any
    // f2 byte landed, leaving a file that is simply a sealed 2-field
    // archive — no salvage needed, nothing to test.)
    try {
      ArchiveWriter w(path, {.exec = {.threads = 1}});
      w.append_field("f0", f0, dims, block, "sz14", 1e-3);
      w.append_field("f1", f1, dims, block, "sz14", 1e-3);
      fail::arm("archive.writer.write", {fail::Kind::kAbort, 2, 1, 0});
      w.append_field("f2", f2, dims, block, "sz14", 1e-3);
    } catch (...) {
    }
    _exit(99);  // reaching here means the failpoint did NOT kill us
  }

  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), fail::kAbortExitCode)
      << "child was not killed by the abort failpoint";

  // The file ends in a torn third append: strict open must fail...
  EXPECT_THROW(ArchiveReader(path, {.threads = 1}), std::runtime_error);

  // ...salvage open must land on the post-f1 checkpoint...
  {
    ArchiveReader r(path, {.threads = 1, .open = OpenMode::kSalvage});
    EXPECT_TRUE(r.salvage_info().fallback);
    ASSERT_EQ(r.fields().size(), 2u);
    (void)r.read<float>("f0");
    (void)r.read<float>("f1");
  }

  // ...and fsck --repair must make the archive strictly readable again
  // with both sealed fields decoding bit-identical to a pristine ingest.
  FsckReport report = fsck_repair(path);
  EXPECT_TRUE(report.truncated);
  EXPECT_TRUE(report.scrub.issues.empty());

  const std::string pristine_path = tmp_path("killed_pristine.sza");
  {
    ArchiveWriter w(pristine_path, {.exec = {.threads = 1}});
    w.append_field("f0", f0, dims, block, "sz14", 1e-3);
    w.append_field("f1", f1, dims, block, "sz14", 1e-3);
    w.finish();
  }
  ArchiveReader repaired(path, {.threads = 1});
  ArchiveReader pristine(pristine_path, {.threads = 1});
  EXPECT_FALSE(repaired.salvage_info().fallback);
  ASSERT_EQ(repaired.fields().size(), 2u);
  EXPECT_EQ(repaired.read<float>("f0"), pristine.read<float>("f0"));
  EXPECT_EQ(repaired.read<float>("f1"), pristine.read<float>("f1"));

  std::remove(path.c_str());
  std::remove(pristine_path.c_str());
}
#endif  // !_WIN32

// ---------------------------------------------------------------------------
// In-process failure modes: the writer survives the exception, refuses
// further work, and the on-disk prefix stays salvageable.
// ---------------------------------------------------------------------------

TEST(Recovery, InjectedEnospcMarksWriterBrokenButPrefixSalvages) {
  DisarmAll guard;
  const std::string path = tmp_path("enospc.sza");
  const Dims dims{32, 24};
  const Dims block{16, 16};
  const auto f0 = field_values(dims.count(), 0.2f);
  const auto f1 = field_values(dims.count(), 4.1f);

  ArchiveWriter w(path, {.exec = {.threads = 1}});
  w.append_field("ok", f0, dims, block, "sz14", 1e-3);
  const std::uint64_t sealed = w.consistent_bytes();

  fail::arm("archive.writer.write", {fail::Kind::kEnospc, 0, 1, 0});
  EXPECT_THROW(w.append_field("doomed", f1, dims, block, "sz14", 1e-3),
               std::runtime_error);
  fail::disarm_all();

  EXPECT_TRUE(w.broken());
  EXPECT_EQ(w.consistent_bytes(), sealed)
      << "failed append must not advance the checkpoint";
  // A broken writer refuses everything, including sealing.
  EXPECT_THROW(w.append_field("after", f1, dims, block, "sz14", 1e-3),
               std::runtime_error);
  EXPECT_THROW(w.finish(), std::runtime_error);

  // The salvage path recovers the sealed prefix.
  ArchiveReader r(path, {.threads = 1, .open = OpenMode::kSalvage});
  EXPECT_EQ(r.salvage_info().consistent_bytes, sealed);
  ASSERT_EQ(r.fields().size(), 1u);
  EXPECT_EQ(r.fields()[0].name, "ok");
  (void)r.read<float>("ok");

  std::remove(path.c_str());
}

TEST(Recovery, TornWriteLeavesSalvageablePrefixAndFsckRepairs) {
  DisarmAll guard;
  const std::string path = tmp_path("torn.sza");
  const Dims dims{32, 24};
  const Dims block{16, 16};
  const auto f0 = field_values(dims.count(), 0.7f);
  const auto f1 = field_values(dims.count(), 5.5f);

  std::uint64_t sealed = 0;
  {
    ArchiveWriter w(path, {.exec = {.threads = 1}});
    w.append_field("keep", f0, dims, block, "gzip_like", 0.0);
    sealed = w.consistent_bytes();
    // Tear the next write after 3 bytes: a real partial payload lands on
    // disk before the failure, exactly like a crash mid-pwrite.
    fail::arm("archive.writer.write", {fail::Kind::kTorn, 0, 1, 3});
    EXPECT_THROW(w.append_field("torn", f1, dims, block, "gzip_like", 0.0),
                 std::runtime_error);
    fail::disarm_all();
    EXPECT_TRUE(w.broken());
  }  // destructor on a broken writer must not throw or seal

  // The torn bytes are really on disk (file larger than the checkpoint).
  ASSERT_GT(std::filesystem::file_size(path), sealed);

  FsckReport scan = fsck_scan(path);
  EXPECT_FALSE(scan.clean());
  EXPECT_TRUE(scan.needs_truncate());
  EXPECT_EQ(scan.scrub.salvage.consistent_bytes, sealed);

  FsckReport repaired = fsck_repair(path);
  EXPECT_TRUE(repaired.truncated);
  EXPECT_EQ(std::filesystem::file_size(path), sealed);

  ArchiveReader r(path, {.threads = 1});  // strict open succeeds post-repair
  ASSERT_EQ(r.fields().size(), 1u);
  (void)r.read<float>("keep");

  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// fsck damage classification.
// ---------------------------------------------------------------------------

TEST(Recovery, FsckScanIsCleanOnSealedArchive) {
  const std::string path = tmp_path("clean.sza");
  const Dims dims{24, 24};
  {
    ArchiveWriter w(path, {.exec = {.threads = 1}});
    w.append_field("a", field_values(dims.count(), 0.1f), dims, Dims{8, 8},
                   "sz14", 1e-3);
    w.finish();
  }
  FsckReport report = fsck_scan(path);
  EXPECT_TRUE(report.clean());
  EXPECT_FALSE(report.scrub.salvage.fallback);
  EXPECT_EQ(report.scrub.salvage.consistent_bytes,
            report.scrub.salvage.file_bytes);
  EXPECT_EQ(report.scrub.fields_scanned, 1u);
  EXPECT_GT(report.scrub.blocks_scanned, 0u);
  EXPECT_TRUE(report.scrub.issues.empty());
  std::remove(path.c_str());
}

TEST(Recovery, FsckReportsCorruptPayloadAndRepairRefusesToHideIt) {
  const std::string path = tmp_path("crc.sza");
  const Dims dims{24, 24};
  {
    ArchiveWriter w(path, {.exec = {.threads = 1}});
    w.append_field("a", field_values(dims.count(), 0.4f), dims, Dims{8, 8},
                   "sz14", 1e-3);
    w.finish();
  }

  // Flip one byte inside the first block payload (just past the
  // superblock) — damage INSIDE the consistent region.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekp(static_cast<std::streamoff>(kSuperblockSize + 4));
    char byte = 0;
    f.seekg(static_cast<std::streamoff>(kSuperblockSize + 4));
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(static_cast<std::streamoff>(kSuperblockSize + 4));
    f.write(&byte, 1);
  }

  FsckReport scan = fsck_scan(path);
  EXPECT_FALSE(scan.clean());
  EXPECT_FALSE(scan.needs_truncate()) << "CRC damage is not a torn tail";
  ASSERT_FALSE(scan.scrub.issues.empty());
  EXPECT_EQ(scan.scrub.issues[0].field, "a");
  EXPECT_NE(scan.scrub.issues[0].crc_stored, scan.scrub.issues[0].crc_actual);

  // Repair must NOT truncate valid structure to mask payload corruption.
  FsckReport repaired = fsck_repair(path);
  EXPECT_FALSE(repaired.truncated);
  EXPECT_GT(repaired.scrub.unrecoverable_payloads, 0u);

  std::remove(path.c_str());
}

TEST(Recovery, SalvageOpenRejectsFileWithNoCheckpoint) {
  const std::string path = tmp_path("hopeless.sza");
  {
    std::ofstream f(path, std::ios::binary);
    const char sb[] = "SZA1\x01\x00\x00\x00";  // plausible superblock only
    f.write(sb, 8);
    std::vector<char> noise(512, '\x5a');
    f.write(noise.data(), static_cast<std::streamsize>(noise.size()));
  }
  EXPECT_THROW(ArchiveReader(path, {.threads = 1, .open = OpenMode::kSalvage}),
               std::runtime_error);
  EXPECT_THROW((void)fsck_scan(path), std::runtime_error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sz14::archive
