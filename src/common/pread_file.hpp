// Read-only file with positional (offset-addressed) reads: every read_at()
// names its own absolute offset, so there is no shared cursor to race on —
// one open handle serves any number of concurrent readers.  POSIX builds
// use pread(2) on a single descriptor; the portable fallback keeps one
// std::ifstream behind a mutex (correct, merely serialized).
//
// This is what lets ArchiveReader::read<T>() be const and thread-safe:
// the old shared-ifstream path interleaved seekg/read pairs from different
// threads, which is a data race on the stream state AND silently pairs one
// thread's seek with another's read.
//
// FetchMode::kMmap additionally maps the whole file read-only and serves
// view() as a zero-copy span into the mapping; read_at() becomes a memcpy
// out of the map.  The map is strictly an accelerator: if mmap is
// unavailable (non-POSIX builds), fails, or covers less of the file than a
// request needs (short map), every call degrades to the pread path with
// identical semantics — callers that probe view() first must treat an
// empty span as "stage through read_at instead", never as an error.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#if defined(_WIN32)
#include <fstream>
#include <mutex>
#endif

namespace sz14 {

/// How a PreadFile services reads.  kPread is the default copy-per-read
/// path; kMmap is opt-in zero-copy.  Requesting kMmap never makes open
/// fail: on map failure the file silently operates in kPread mode (query
/// fetch_mode() for the mode actually in effect).
enum class FetchMode : std::uint8_t { kPread, kMmap };

class PreadFile {
 public:
  /// Opens `path` and captures its size.  Throws std::runtime_error when
  /// the file cannot be opened or its size cannot be determined.  `mode`
  /// is a request, not a guarantee — see FetchMode.
  explicit PreadFile(const std::string& path,
                     FetchMode mode = FetchMode::kPread);
  ~PreadFile();

  PreadFile(const PreadFile&) = delete;
  PreadFile& operator=(const PreadFile&) = delete;

  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  /// The mode actually in effect (kPread when an mmap request fell back).
  [[nodiscard]] FetchMode fetch_mode() const noexcept {
    return map_ != nullptr ? FetchMode::kMmap : FetchMode::kPread;
  }

  /// Fill `out` completely from absolute offset `offset`.  Throws
  /// std::runtime_error on I/O failure or short read (reading past EOF is
  /// a short read, not silence).  Safe from any number of threads.
  void read_at(std::uint64_t offset, std::span<std::uint8_t> out) const;

  /// Zero-copy window [offset, offset+size) into the mmap'd file, valid
  /// for the lifetime of this PreadFile.  Returns an empty span when the
  /// file is not mapped or the window is not fully inside the mapped
  /// prefix — callers fall back to read_at().  Never throws.
  [[nodiscard]] std::span<const std::uint8_t> view(
      std::uint64_t offset, std::uint64_t size) const noexcept;

  /// Readahead hints for the mapped range (no-op in pread mode or off
  /// POSIX).  kWillNeed asks the kernel to fault the range in ahead of a
  /// block scan; kSequential tunes readahead for a front-to-back sweep.
  enum class Advice : std::uint8_t { kWillNeed, kSequential };
  void advise(std::uint64_t offset, std::uint64_t size, Advice a) const;

 private:
  std::string path_;
  std::uint64_t size_ = 0;
  // Mapped prefix: map_ is null in pread mode; map_size_ <= size_ (a short
  // map — normally equal, smaller under the short-map failpoint surrogate
  // used to exercise the fallback paths without a real SIGBUS).
  const std::uint8_t* map_ = nullptr;
  std::uint64_t map_size_ = 0;
#if defined(_WIN32)
  mutable std::mutex mutex_;  // the fallback stream has a shared cursor
  mutable std::ifstream in_;
#else
  int fd_ = -1;
#endif
};

}  // namespace sz14
