// Shared fixtures for the table/figure reproduction benches: the three
// evaluation data sets at laptop scale, value-range helpers, and a tiny
// table printer.  Every bench prints the same rows/series the paper
// reports; absolute numbers differ (synthetic data, different machine) but
// the qualitative shape must match the paper (see EXPERIMENTS.md).
#pragma once

#include <stdlib.h>  // mkdtemp

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <span>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "archive/blocking.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "data/generators.hpp"

namespace sz14::bench {

/// ATM-class 2D field (paper: 1800x3600 CESM slices).
inline data::Field atm() { return data::climate2d(450, 900); }

/// APS-class 2D frame (paper: 2560x2560 detector frames).
inline data::Field aps() { return data::xray2d(512, 512); }

/// Hurricane-class 3D field (paper: 100x500x500).
inline data::Field hurricane() { return data::hurricane3d(25, 125, 125); }

inline double value_range(std::span<const float> values) {
  double lo = values[0], hi = values[0];
  for (float v : values) {
    lo = std::min<double>(lo, v);
    hi = std::max<double>(hi, v);
  }
  return hi - lo;
}

/// Fastest of `reps` timed calls of `fn`, in seconds.
template <class Fn>
double best_of(int reps, const Fn& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    fn();
    best = std::min(best, t.seconds());
  }
  return best;
}

/// A fresh mkdtemp directory under the system temp directory, removed with
/// everything in it when the object goes out of scope, so concurrent runs
/// never write the same scratch archive.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& prefix) {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / (prefix + ".XXXXXX"))
            .string();
    if (::mkdtemp(tmpl.data()) == nullptr)
      throw std::system_error(errno, std::generic_category(),
                              "mkdtemp " + tmpl);
    path_ = tmpl;
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

// --- archive serving-mix fixtures -----------------------------------------
// Shared by run_perf_suite, bench_archive_random_access and the repository
// benchmark (perfbench/) so all three measure the SAME skewed workload; a
// tweak here changes every serving benchmark.

/// `n` deterministic random regions of (up to) `extent` per axis.
inline std::vector<archive::Region> serving_regions(const Dims& dims,
                                                    std::size_t n,
                                                    std::size_t extent) {
  Rng rng(4242);
  std::vector<archive::Region> rs;
  for (std::size_t i = 0; i < n; ++i) {
    archive::Region r;
    r.rank = dims.rank();
    for (std::size_t a = 0; a < r.rank; ++a) {
      r.extent[a] = std::min(extent, dims.extent(a));
      r.origin[a] = rng.below(dims.extent(a) - r.extent[a] + 1);
    }
    rs.push_back(r);
  }
  return rs;
}

/// Zipf-ish region pick: ~80% of reads land in the first `hot` regions
/// (uniform over all of them when there is no cold remainder).
inline std::size_t serving_pick(Rng& rng, std::size_t hot,
                                std::size_t total) {
  if (hot >= total) return rng.below(total);
  return rng.below(10) < 8 ? rng.below(hot) : hot + rng.below(total - hot);
}

/// Linear-interpolated percentile (pct in [0,100]); sorts `samples` in
/// place.  Used for the serving-daemon latency records (p50/p99).
inline double percentile(std::vector<double>& samples, double pct) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = pct / 100.0 *
                      static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

inline double cache_hit_rate(std::uint64_t hits, std::uint64_t misses) {
  return hits + misses ? static_cast<double>(hits) /
                             static_cast<double>(hits + misses)
                       : 0.0;
}

/// One concurrent serving run: wall time, reads that returned, reads that
/// diverged or threw, and the latency of every read that returned.
struct ServingRun {
  double seconds = 0;
  std::size_t reads = 0;
  std::size_t failed = 0;
  std::vector<double> latency_ms;

  [[nodiscard]] double reads_per_s() const {
    return static_cast<double>(reads) / seconds;
  }
};

/// The serving mix: `threads` workers each make `reads_per_thread`
/// serving_pick reads (worker w seeds its picks with `seed_base + w`)
/// through the read callable `make_read(w)` returns — a shared reader, or
/// the worker's own daemon client — and check every read of `regions[i]`
/// against `want[i]`, its sequential ground truth.  A throw counts as a
/// failed read and the first one is printed, so it surfaces as a
/// diagnostic instead of a std::terminate from an escaping exception.
template <class MakeRead>
ServingRun run_serving(std::size_t threads, std::size_t reads_per_thread,
                       std::uint64_t seed_base, std::size_t hot,
                       const std::vector<archive::Region>& regions,
                       const std::vector<std::vector<float>>& want,
                       const MakeRead& make_read) {
  std::atomic<std::size_t> failed{0};
  const auto fail = [&](const std::exception& e) {
    if (failed.fetch_add(1) == 0)
      std::fprintf(stderr, "serving read threw: %s\n", e.what());
  };
  std::vector<std::vector<double>> lat_ms(threads);
  std::vector<std::thread> workers;
  Timer t;
  for (std::size_t w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      try {
        auto read = make_read(w);
        Rng rng(seed_base + w);
        lat_ms[w].reserve(reads_per_thread);
        for (std::size_t k = 0; k < reads_per_thread; ++k) {
          const std::size_t i = serving_pick(rng, hot, regions.size());
          try {
            Timer rt;
            const std::vector<float> got = read(regions[i]);
            lat_ms[w].push_back(rt.seconds() * 1e3);
            if (got != want[i]) ++failed;
          } catch (const std::exception& e) {
            fail(e);
          }
        }
      } catch (const std::exception& e) {
        fail(e);  // the worker's reader or client could not be made
      }
    });
  }
  for (auto& th : workers) th.join();
  ServingRun run;
  run.seconds = t.seconds();
  run.failed = failed.load();
  for (const auto& v : lat_ms)
    run.latency_ms.insert(run.latency_ms.end(), v.begin(), v.end());
  run.reads = run.latency_ms.size();
  return run;
}

inline void header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void rule() {
  std::printf("-----------------------------------------------------------------------\n");
}

/// Minimal machine-readable output: emits a JSON array of flat records to
/// `out`, one begin_record()/kv()*/end_record() group per row.  Scoped so
/// the closing bracket lands when the writer is destroyed.
class JsonWriter {
 public:
  explicit JsonWriter(std::FILE* out = stdout) : out_(out) {
    std::fprintf(out_, "[");
  }
  ~JsonWriter() { std::fprintf(out_, "\n]\n"); }

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  void begin_record() {
    std::fprintf(out_, "%s\n  {", first_record_ ? "" : ",");
    first_record_ = false;
    first_kv_ = true;
  }
  void end_record() { std::fprintf(out_, "}"); }

  void kv(const char* key, double v) {
    sep();
    // JSON has no inf/nan literals.
    if (std::isfinite(v))
      std::fprintf(out_, "\"%s\": %.6g", key, v);
    else
      std::fprintf(out_, "\"%s\": null", key);
  }
  void kv(const char* key, std::size_t v) {
    sep();
    std::fprintf(out_, "\"%s\": %zu", key, v);
  }
  void kv(const char* key, const char* v) {
    sep();
    std::fprintf(out_, "\"%s\": \"", key);
    for (; *v; ++v) {
      const unsigned char c = static_cast<unsigned char>(*v);
      if (c == '"' || c == '\\')
        std::fprintf(out_, "\\%c", c);
      else if (c < 0x20)
        std::fprintf(out_, "\\u%04x", c);
      else
        std::fputc(c, out_);
    }
    std::fputc('"', out_);
  }
  void kv(const char* key, const std::string& v) { kv(key, v.c_str()); }

 private:
  void sep() {
    std::fprintf(out_, "%s", first_kv_ ? "" : ", ");
    first_kv_ = false;
  }

  std::FILE* out_;
  bool first_record_ = true;
  bool first_kv_ = true;
};

}  // namespace sz14::bench
