// Tracked performance baseline: compress/decompress throughput, compression
// factor, and per-stage breakdown on 1D/2D/3D synthetic fields, plus
// concurrent archive-serving reads, all measured in the same run so
// comparisons are apples-to-apples on the same machine.  The suite is two
// tables:
//   codec table   {fast, turbo, rans}, each row run through the sequential
//                 codec and the threaded slab codec (--threads N workers):
//     fast  — specialized wavefront kernels, exact divide (bit-identity
//             with the generic walk is pinned by tests/test_kernels.cpp and
//             the golden streams in tests/test_format.cpp),
//     turbo — reciprocal-multiply quantization; NOT bit-identical,
//     rans  — the fast walk with the rANS entropy backend (reconstruction
//             must equal fast's bit for bit).
//             Every row is decompressed and its max |x - x'| checked
//             against eb.
//   serving table {nocache, cache, parity, mmap, sharded}: the archive
//                 configurations read by bench::run_serving's workers
//                 through one shared ArchiveReader; the daemon scenario runs
//                 the same runner with one serve::Client per worker.  Every
//                 read is verified bit-identical to a sequential read.
// A "machine" header record captures the context (hardware_concurrency,
// build type, reps) that makes BENCH_PRn.json files comparable across PRs.
// Scratch archives live in a per-run mkdtemp directory that is removed on
// every exit path, so concurrent runs do not collide.
//
// Emits a JSON array (schema checked in CI by tools/bench_diff.py); the
// committed BENCH_PR*.json files form the repo's perf trajectory.  Exits 1
// when any check fails.
//
// Usage: run_perf_suite [--smoke] [--reps N] [--threads N] [--out FILE]
//                       [--filter REGEX]
//   --smoke     tiny sizes (CI bit-rot guard; numbers are meaningless)
//   --reps N    timing repetitions, best-of (default 3)
//   --threads N workers for the parallel and serving sections (default 8)
//   --out       write JSON to FILE instead of stdout
//   --filter    run only sections whose tag matches REGEX (search, not
//               full match).  Tags: <field>/<mode> for the sequential
//               modes (fast|turbo|rans),
//               <field>/parallel/<mode> (fast|turbo|rans) for the slab
//               codec, and serving/(nocache|cache|parity|mmap|sharded|
//               daemon) for the archive-serving sections.  Cross-record
//               outputs (the rans/fast recon check, the speedup record)
//               appear only when every input they need also matched.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "archive/archive.hpp"
#include "bench_util.hpp"
#include "common/bytebuffer.hpp"
#include "common/exec_policy.hpp"
#include "common/timer.hpp"
#include "core/chunk_codec.hpp"
#include "core/compressor.hpp"
#include "core/format.hpp"
#include "core/quantizer.hpp"
#include "data/generators.hpp"
#include "encoding/huffman.hpp"
#include "parallel/parallel_codec.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace {

using namespace sz14;

struct StageTimes {
  double compress_s = 0;
  double decompress_s = 0;
  double pass_s = 0;            // prediction+quantization walk (compress)
  double entropy_encode_s = 0;  // Huffman encode
  double entropy_decode_s = 0;  // header + Huffman decode
  double kernel_decode_s = 0;   // reconstruction walk (decompress)
  std::size_t stream_bytes = 0;
  double max_error = 0;         // max |x - x'| over finite points
};

double max_abs_error(std::span<const float> a, std::span<const float> b) {
  double m = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Only a non-finite ORIGINAL is exempt (restored bit-exact by the raw
    // escape path); a non-finite diff at a finite input is a divergence the
    // bound gate must flag, so it poisons the max.
    if (!std::isfinite(static_cast<double>(a[i]))) continue;
    const double d = std::fabs(static_cast<double>(a[i]) -
                               static_cast<double>(b[i]));
    m = std::max(m, std::isfinite(d)
                        ? d
                        : std::numeric_limits<double>::infinity());
  }
  return m;
}

/// Measure one hot-path mode.  The mode rides opts.exec (per-call policy),
/// and a per-measure scratch arena is reused across reps exactly as a
/// batch workload would.
StageTimes measure(const data::Field& f, const Options& opts, int reps,
                   std::vector<float>* recon_out) {
  CodecScratch scratch;
  Options timed = opts;
  timed.exec.scratch = &scratch;

  StageTimes st;
  std::vector<std::uint8_t> stream;
  st.compress_s = bench::best_of(reps, [&] {
    stream = compress(f.values, f.dims, timed);
  });
  st.stream_bytes = stream.size();

  std::vector<float> out(f.dims.count());
  st.decompress_s = bench::best_of(reps, [&] {
    (void)decompress_into(stream, out, timed.exec);
  });
  st.max_error = max_abs_error(f.values, out);

  // Stage breakdown.  The resolved bound equals eb_abs here (benches set
  // eb_abs explicitly), so the standalone pass matches compress() work.
  st.pass_s = bench::best_of(reps, [&] {
    (void)prediction_quantization_pass(f.values, f.dims, opts.layers,
                                       opts.interval_bits, opts.eb_abs,
                                       false, timed.exec);
  });
  const auto pass = prediction_quantization_pass(
      f.values, f.dims, opts.layers, opts.interval_bits, opts.eb_abs, false,
      timed.exec);
  // The entropy stage exactly as compress() runs it: histogram, table,
  // then the stream's section (tagged table, code count, payload).
  const LinearQuantizer quantizer(opts.interval_bits, opts.eb_abs);
  st.entropy_encode_s = bench::best_of(reps, [&] {
    ByteWriter w;
    const auto hist =
        huffman_histogram(pass.codes, quantizer.alphabet_size());
    const EntropyTable table(opts.exec.entropy, hist);
    table.write(w, /*tagged=*/true);
    w.put_varint(pass.codes.size());
    table.append_payload(pass.codes, hist, w);
  });
  // Reuse a code vector across reps like decompress_into does with the
  // arena, so entropy_decode_s and decompress_s amortize allocation the
  // same way and their difference (kernel_decode_s) stays meaningful.
  std::vector<std::uint16_t> decode_codes;
  st.entropy_decode_s = bench::best_of(reps, [&] {
    ByteReader in(stream);
    const EntropyTable table(read_header(in).entropy, in, /*tagged=*/true);
    const auto n_codes = static_cast<std::size_t>(in.get_varint());
    table.decode_payload(
        in.get_bytes(static_cast<std::size_t>(in.get_varint())), n_codes,
        decode_codes);
  });
  st.kernel_decode_s = st.decompress_s - st.entropy_decode_s;

  if (recon_out) *recon_out = std::move(out);
  return st;
}

struct ParallelTimes {
  double compress_s = 0;
  double decompress_s = 0;
  double entropy_encode_s = 0;  // per-slab emit, thread CPU s across workers
  double entropy_decode_s = 0;  // per-slab payload decode, thread CPU s
  std::size_t stream_bytes = 0;
  std::size_t chunks = 0;
  double max_error = 0;
};

ParallelTimes measure_parallel(const data::Field& f, const Options& opts,
                               int reps, ThreadPool& pool) {
  // Pool and scratch travel on the policy; mode already set by the caller.
  CodecScratch scratch;
  Options timed = opts;
  timed.exec.pool = &pool;
  timed.exec.scratch = &scratch;
  ParallelTimes pt;
  ParallelResult result;
  // Manual best-of so the entropy breakdown comes from the same rep as the
  // reported wall time (best_of would discard it).
  pt.compress_s = 1e300;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    result = parallel_compress(f.values, f.dims, timed);
    const double s = t.seconds();
    if (s < pt.compress_s) {
      pt.compress_s = s;
      pt.entropy_encode_s = result.entropy_encode_seconds;
    }
  }
  pt.stream_bytes = result.stream.size();
  pt.chunks = result.chunks;
  ParallelDecompressResult out;
  pt.decompress_s = 1e300;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    out = parallel_decompress(result.stream, timed.exec);
    const double s = t.seconds();
    if (s < pt.decompress_s) {
      pt.decompress_s = s;
      pt.entropy_decode_s = out.entropy_decode_seconds;
    }
  }
  pt.max_error = max_abs_error(f.values, out.data);
  return pt;
}

double gbps(std::size_t bytes, double seconds) {
  return seconds > 0 ? static_cast<double>(bytes) / 1e9 / seconds : 0.0;
}

double cf(std::size_t raw_bytes, std::size_t stream_bytes) {
  return static_cast<double>(raw_bytes) / static_cast<double>(stream_bytes);
}

/// One codec configuration, measured in both the sequential and the
/// parallel pass.  "rans" is the fast walk with the rANS entropy backend —
/// same codes, different entropy stage — so its reconstruction must be
/// bit-identical to fast's.
struct CodecRow {
  const char* mode;
  HotPathMode hot_path;
  EntropyBackend entropy;
};
constexpr CodecRow kCodecRows[] = {
    {"fast", HotPathMode::kFast, EntropyBackend::kHuffman},
    {"turbo", HotPathMode::kTurbo, EntropyBackend::kHuffman},
    {"rans", HotPathMode::kFast, EntropyBackend::kRans},
};
constexpr std::size_t kFastRow = 0, kTurboRow = 1, kRansRow = 2;
constexpr std::size_t kCodecModes = std::size(kCodecRows);

/// One archive-serving configuration over the shared-reader runner.
struct ServingRow {
  const char* mode;
  std::uint32_t parity_group;  // 0 = no parity blocks
  std::uint64_t shard_bytes;   // 0 = single-file archive
  FetchMode fetch;
  std::size_t cache_bytes;     // decoded-block cache budget, 0 = off
  std::uint64_t seed_base;     // worker w picks regions with Rng(seed_base + w)
};

void emit_mode_record(bench::JsonWriter& json, const char* field,
                      std::size_t rank, std::size_t n_values,
                      std::size_t raw_bytes, const StageTimes& st,
                      const char* mode, double eb, int reps) {
  json.begin_record();
  json.kv("bench", "perf_suite");
  json.kv("field", field);
  json.kv("mode", mode);
  json.kv("rank", rank);
  json.kv("n_values", n_values);
  json.kv("raw_bytes", raw_bytes);
  json.kv("stream_bytes", st.stream_bytes);
  json.kv("cf", cf(raw_bytes, st.stream_bytes));
  json.kv("eb_abs", eb);
  json.kv("reps", static_cast<std::size_t>(reps));
  json.kv("compress_seconds", st.compress_s);
  json.kv("decompress_seconds", st.decompress_s);
  json.kv("compress_gbps", gbps(raw_bytes, st.compress_s));
  json.kv("decompress_gbps", gbps(raw_bytes, st.decompress_s));
  json.kv("pass_seconds", st.pass_s);
  json.kv("entropy_encode_seconds", st.entropy_encode_s);
  json.kv("entropy_decode_seconds", st.entropy_decode_s);
  json.kv("kernel_decode_seconds", st.kernel_decode_s);
  json.kv("max_error", st.max_error);
  json.end_record();
}

void emit_parallel_record(bench::JsonWriter& json, const char* field,
                          std::size_t rank, std::size_t threads,
                          std::size_t raw_bytes, const ParallelTimes& p,
                          const char* mode, double eb, int reps) {
  json.begin_record();
  json.kv("bench", "perf_suite_parallel");
  json.kv("field", field);
  json.kv("mode", mode);
  json.kv("rank", rank);
  json.kv("threads", threads);
  json.kv("chunks", p.chunks);
  json.kv("raw_bytes", raw_bytes);
  json.kv("stream_bytes", p.stream_bytes);
  json.kv("cf", cf(raw_bytes, p.stream_bytes));
  json.kv("eb_abs", eb);
  json.kv("reps", static_cast<std::size_t>(reps));
  json.kv("compress_seconds", p.compress_s);
  json.kv("decompress_seconds", p.decompress_s);
  json.kv("compress_gbps", gbps(raw_bytes, p.compress_s));
  json.kv("decompress_gbps", gbps(raw_bytes, p.decompress_s));
  json.kv("entropy_encode_seconds", p.entropy_encode_s);
  json.kv("entropy_decode_seconds", p.entropy_decode_s);
  json.kv("max_error", p.max_error);
  json.end_record();
}

/// Sequential ground truth: every region read once, in order.
std::vector<std::vector<float>> read_all(
    archive::ArchiveReader& reader,
    const std::vector<archive::Region>& regions) {
  std::vector<std::vector<float>> out;
  out.reserve(regions.size());
  for (const auto& r : regions) out.push_back(reader.read<float>("v", r));
  return out;
}

int run(int argc, char** argv) {
  bool smoke = false;
  int reps = 3;
  std::size_t threads = 8;
  std::string out_path;
  std::string filter_text;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[a], "--reps") == 0 && a + 1 < argc) {
      reps = std::atoi(argv[++a]);
    } else if (std::strcmp(argv[a], "--threads") == 0 && a + 1 < argc) {
      threads = static_cast<std::size_t>(std::atoll(argv[++a]));
    } else if (std::strcmp(argv[a], "--out") == 0 && a + 1 < argc) {
      out_path = argv[++a];
    } else if (std::strcmp(argv[a], "--filter") == 0 && a + 1 < argc) {
      filter_text = argv[++a];
    } else {
      std::fprintf(stderr,
                   "usage: run_perf_suite [--smoke] [--reps N] [--threads N] "
                   "[--out FILE] [--filter REGEX]\n");
      return 2;
    }
  }
  if (reps < 1) reps = 1;
  if (threads == 0) threads = 1;

  std::regex filter_re;
  const bool filtered = !filter_text.empty();
  if (filtered) {
    try {
      filter_re = std::regex(filter_text);
    } catch (const std::regex_error& e) {
      std::fprintf(stderr, "run_perf_suite: bad --filter regex: %s\n",
                   e.what());
      return 2;
    }
  }
  const auto want = [&](const std::string& tag) {
    return !filtered || std::regex_search(tag, filter_re);
  };

  const data::Field fields[] = {
      smoke ? data::smooth1d(4096) : data::smooth1d(4u << 20),
      smoke ? data::climate2d(64, 64) : data::climate2d(2048, 2048),
      smoke ? data::hurricane3d(16, 24, 24)
            : data::hurricane3d(128, 192, 192),
  };
  const char* field_names[] = {"smooth1d", "climate2d", "hurricane3d"};

  std::FILE* out = stdout;
  if (!out_path.empty()) {
    out = std::fopen(out_path.c_str(), "w");
    if (!out) {
      std::fprintf(stderr, "run_perf_suite: cannot open %s\n",
                   out_path.c_str());
      return 1;
    }
  }

  // Every scratch archive of this run lives here; the directory and all in
  // it go when run() returns or unwinds.
  const bench::ScratchDir scratch("run_perf_suite");
  int exit_code = 0;
  const auto check = [&](bool ok, const char* what, const std::string& tag) {
    if (ok) return;
    std::fprintf(stderr, "run_perf_suite: %s (%s)\n", what, tag.c_str());
    exit_code = 1;
  };
  {
    bench::JsonWriter json(out);

    // Machine/context header: what makes two BENCH_PRn.json comparable.
    json.begin_record();
    json.kv("bench", "machine");
    json.kv("hardware_concurrency",
            static_cast<std::size_t>(std::thread::hardware_concurrency()));
#ifdef SZ14_BUILD_TYPE
    json.kv("build_type", SZ14_BUILD_TYPE);
#else
    json.kv("build_type", "unknown");
#endif
#if defined(__VERSION__)
    json.kv("compiler", __VERSION__);
#else
    json.kv("compiler", "unknown");
#endif
    json.kv("reps", static_cast<std::size_t>(reps));
    json.kv("threads", threads);
    json.kv("smoke", static_cast<std::size_t>(smoke ? 1 : 0));
    json.end_record();

    // Codec table: every row through the sequential codec, then every row
    // through the threaded slab codec, all through per-call policies (same
    // process, no global state).  Every row must meet the error bound.
    ThreadPool pool(threads);
    for (std::size_t fi = 0; fi < 3; ++fi) {
      const data::Field& f = fields[fi];
      const std::string fname = field_names[fi];
      const std::size_t raw_bytes = f.values.size() * sizeof(float);
      Options opts;
      opts.eb_abs = 1e-3;

      bool seq_on[kCodecModes], par_on[kCodecModes], any = false;
      for (std::size_t m = 0; m < kCodecModes; ++m) {
        seq_on[m] = want(fname + "/" + kCodecRows[m].mode);
        par_on[m] = want(fname + "/parallel/" + kCodecRows[m].mode);
        any = any || seq_on[m] || par_on[m];
      }
      if (!any) continue;
      const auto row_options = [&](std::size_t m) {
        Options o = opts;
        o.exec.mode = kCodecRows[m].hot_path;
        o.exec.entropy = kCodecRows[m].entropy;
        return o;
      };

      StageTimes seq[kCodecModes];
      std::vector<float> recon[kCodecModes];
      for (std::size_t m = 0; m < kCodecModes; ++m) {
        if (!seq_on[m]) continue;
        const std::string tag = fname + "/" + kCodecRows[m].mode;
        seq[m] = measure(f, row_options(m), reps, &recon[m]);
        check(seq[m].max_error <= opts.eb_abs, "BOUND VIOLATION", tag);
        emit_mode_record(json, field_names[fi], f.dims.rank(),
                         f.values.size(), raw_bytes, seq[m],
                         kCodecRows[m].mode, opts.eb_abs, reps);
      }
      if (seq_on[kFastRow] && seq_on[kRansRow])
        check(std::memcmp(recon[kRansRow].data(), recon[kFastRow].data(),
                          recon[kFastRow].size() * sizeof(float)) == 0,
              "RANS/FAST RECON DIVERGENCE", fname);

      ParallelTimes par[kCodecModes];
      for (std::size_t m = 0; m < kCodecModes; ++m) {
        if (!par_on[m]) continue;
        const std::string tag = fname + "/parallel/" + kCodecRows[m].mode;
        par[m] = measure_parallel(f, row_options(m), reps, pool);
        check(par[m].max_error <= opts.eb_abs, "BOUND VIOLATION", tag);
        emit_parallel_record(json, field_names[fi], f.dims.rank(), threads,
                             raw_bytes, par[m], kCodecRows[m].mode,
                             opts.eb_abs, reps);
      }

      // Turbo measured against fast on the same machine and run.
      const StageTimes& fast = seq[kFastRow];
      const StageTimes& turbo = seq[kTurboRow];
      if (seq_on[kFastRow] && seq_on[kTurboRow] && par_on[kTurboRow]) {
        json.begin_record();
        json.kv("bench", "perf_suite_speedup");
        json.kv("field", field_names[fi]);
        json.kv("rank", f.dims.rank());
        json.kv("speedup_compress_turbo", fast.compress_s / turbo.compress_s);
        json.kv("speedup_decompress_turbo",
                fast.decompress_s / turbo.decompress_s);
        json.kv("speedup_compress_parallel_turbo",
                fast.compress_s / par[kTurboRow].compress_s);
        json.kv("turbo_max_error", turbo.max_error);
        json.kv("turbo_cf_delta", cf(raw_bytes, turbo.stream_bytes) -
                                      cf(raw_bytes, fast.stream_bytes));
        json.end_record();
      }

      if (seq_on[kFastRow] && seq_on[kTurboRow])
        std::fprintf(
            stderr,
            "%-12s  compress %6.1f -> %6.1f MB/s (turbo %.2fx)   "
            "decompress %6.1f MB/s   CF %.2f   turbo max_err %.2e\n",
            fname.c_str(), gbps(raw_bytes, fast.compress_s) * 1e3,
            gbps(raw_bytes, turbo.compress_s) * 1e3,
            fast.compress_s / turbo.compress_s,
            gbps(raw_bytes, fast.decompress_s) * 1e3,
            cf(raw_bytes, fast.stream_bytes), turbo.max_error);
      if (seq_on[kFastRow] && seq_on[kRansRow]) {
        const StageTimes& rans = seq[kRansRow];
        std::fprintf(
            stderr,
            "              rans: entropy enc %.3fs vs %.3fs, dec %.3fs vs "
            "%.3fs (huffman), CF %.2f vs %.2f\n",
            rans.entropy_encode_s, fast.entropy_encode_s,
            rans.entropy_decode_s, fast.entropy_decode_s,
            cf(raw_bytes, rans.stream_bytes), cf(raw_bytes, fast.stream_bytes));
      }
      if (par_on[kFastRow] && par_on[kTurboRow])
        std::fprintf(
            stderr,
            "              parallel(%zut) compress %6.1f (fast) %6.1f "
            "(turbo) MB/s   decompress %6.1f MB/s\n",
            threads, gbps(raw_bytes, par[kFastRow].compress_s) * 1e3,
            gbps(raw_bytes, par[kTurboRow].compress_s) * 1e3,
            gbps(raw_bytes, par[kTurboRow].decompress_s) * 1e3);
    }

    // Serving table: concurrent region reads from one shared reader on the
    // 3D field — the random-access path the SZA container exists for — plus
    // the same mix through the daemon.  80% of reads target a small hot
    // set; the cached row is measured in steady state (the ground-truth
    // sweep warms it), and every read is verified bit-identical to a
    // sequential read.  Parity is only consulted when a CRC fails, so the
    // parity row must sit on top of nocache with zero repairs; the mmap
    // rows decode straight out of the page cache, the sharded one through
    // a manifest over ~64 KiB shard files (smoke: 8 KiB).
    const ServingRow serving_rows[] = {
        {"nocache", 0, 0, FetchMode::kPread, 0, 1000},
        {"cache", 0, 0, FetchMode::kPread, 256u << 20, 1000},
        {"parity", archive::kDefaultParityGroup, 0, FetchMode::kPread, 0,
         3000},
        {"mmap", 0, 0, FetchMode::kMmap, 0, 5000},
        {"sharded", 0, smoke ? (8u << 10) : (64u << 10), FetchMode::kMmap, 0,
         9000},
    };
    bool any_serving = want("serving/daemon");
    for (const ServingRow& row : serving_rows)
      any_serving = any_serving || want(std::string("serving/") + row.mode);
    if (any_serving) {
      const data::Field& f3 = fields[2];
      const std::size_t bs = smoke ? 8 : 32;
      const Dims block{std::min(bs, f3.dims.extent(0)),
                       std::min(bs, f3.dims.extent(1)),
                       std::min(bs, f3.dims.extent(2))};
      const auto write_archive = [&](const std::string& path,
                                     std::uint32_t parity_group,
                                     std::uint64_t shard_bytes) {
        archive::ArchiveWriter w(path, {.exec = {.threads = threads},
                                        .parity_group = parity_group,
                                        .shard_size = shard_bytes});
        w.append_field("v", std::span<const float>(f3.values), f3.dims, block,
                       "sz14", 1e-3);
        w.finish();
      };
      const std::string apath = scratch.file("archive.sza");
      write_archive(apath, 0, 0);

      // Skewed region mix (deterministic, shared via bench_util).
      const std::size_t ext = smoke ? 6 : 16;
      constexpr std::size_t kHot = 6;
      const std::size_t n_regions = smoke ? 8 : 24;
      const std::size_t reads_per_thread = smoke ? 4 : 24;
      const auto regions = bench::serving_regions(f3.dims, n_regions, ext);
      std::size_t region_values = 0;
      for (const auto& r : regions) region_values += r.count();

      for (const ServingRow& row : serving_rows) {
        const std::string tag = std::string("serving/") + row.mode;
        if (!want(tag)) continue;
        std::string path = apath;
        if (row.parity_group != 0 || row.shard_bytes != 0) {
          path = scratch.file(std::string(row.mode) +
                              (row.shard_bytes ? ".szm" : ".sza"));
          write_archive(path, row.parity_group, row.shard_bytes);
        }
        archive::ArchiveReader reader(
            path, {.threads = threads, .fetch = row.fetch});
        if (reader.fetch_mode() != row.fetch)
          std::fprintf(stderr,
                       "run_perf_suite: warning: mmap fell back to pread\n");
        if (row.cache_bytes != 0) reader.set_cache_capacity(row.cache_bytes);
        const auto truth = read_all(reader, regions);
        reader.reset_counters();
        const bench::ServingRun r = bench::run_serving(
            threads, reads_per_thread, row.seed_base, kHot, regions, truth,
            [&](std::size_t) {
              return [&](const archive::Region& region) {
                return reader.read<float>("v", region);
              };
            });
        const Metrics m = reader.metrics();
        const std::uint64_t repairs = metric(m, "read_repairs");
        check(r.failed == 0 && repairs == 0, "SERVING DIVERGENCE", row.mode);

        const double hit_rate = bench::cache_hit_rate(m);
        json.begin_record();
        json.kv("bench", "perf_suite_archive_serving");
        json.kv("field", "hurricane3d");
        json.kv("mode", row.mode);
        json.kv("threads", threads);
        json.kv("regions", regions.size());
        json.kv("region_values_total", region_values);
        json.kv("reads", r.reads);
        json.kv("seconds", r.seconds);
        json.kv("reads_per_s", r.reads_per_s());
        json.kv("blocks_decoded",
                static_cast<std::size_t>(reader.blocks_decoded()));
        json.kv("cache_hit_rate", hit_rate);
        json.end_record();
        std::fprintf(stderr,
                     "serving %-7s  %zu threads: %7.1f reads/s, %llu "
                     "decodes, hit rate %.2f, %llu repairs\n",
                     row.mode, threads, r.reads_per_s(),
                     static_cast<unsigned long long>(reader.blocks_decoded()),
                     hit_rate, static_cast<unsigned long long>(repairs));
      }

      // Serving daemon end-to-end: the same mix through a real Server and
      // one Client per worker over the loopback transport — protocol
      // framing, event loop, pool dispatch, coalescing and cache all in the
      // measured path, exactly what `sz14 serve` runs in production.  The
      // per-read latencies feed the p50/p99 record, and the coalescing
      // invariant (decodes <= blocks in the field, warm-up included) is
      // asserted.
      if (want("serving/daemon")) {
        const std::size_t clients = std::max<std::size_t>(2, threads);
        const std::size_t requests_per_client = smoke ? 6 : 48;
        serve::ServerConfig cfg;
        cfg.transport = "loopback";
        cfg.endpoint = "perf-suite";
        cfg.threads = threads;
        cfg.cache_bytes = 256u << 20;
        serve::Server server(apath, cfg);
        server.start();

        std::vector<std::vector<float>> truth;
        {
          archive::ArchiveReader direct(apath, {.threads = threads});
          truth = read_all(direct, regions);
        }
        // One untimed pass over the region set, so the timed clients meet
        // a warm cache and the record measures the daemon, not first-touch
        // decodes.
        {
          serve::Client warm("loopback", server.endpoint());
          for (const archive::Region& region : regions)
            (void)warm.read<float>("v", region);
        }
        bench::ServingRun r = bench::run_serving(
            clients, requests_per_client, 7000, kHot, regions, truth,
            [&](std::size_t) {
              return [client = std::make_unique<serve::Client>(
                          "loopback", server.endpoint())](
                         const archive::Region& region) {
                return client->read<float>("v", region);
              };
            });
        server.stop();
        check(r.failed == 0, "SERVING DIVERGENCE", "daemon");

        const Metrics st = server.stats();
        const std::uint64_t decoded = metric(st, "blocks_decoded");
        const std::uint64_t coalesced = metric(st, "coalesced_reads");
        const std::size_t total_blocks =
            server.reader().field("v").blocks.size();
        check(decoded <= total_blocks, "COALESCING LEAK",
              "daemon, " + std::to_string(decoded) + " decodes > " +
                  std::to_string(total_blocks) + " blocks");

        const double p50 = bench::percentile(r.latency_ms, 50.0);
        const double p99 = bench::percentile(r.latency_ms, 99.0);
        json.begin_record();
        json.kv("bench", "perf_suite_serving_daemon");
        json.kv("field", "hurricane3d");
        json.kv("transport", "loopback");
        json.kv("clients", clients);
        json.kv("threads", threads);
        json.kv("regions", regions.size());
        json.kv("reads", r.reads);
        json.kv("seconds", r.seconds);
        json.kv("reads_per_s", r.reads_per_s());
        json.kv("latency_p50_ms", p50);
        json.kv("latency_p99_ms", p99);
        json.kv("blocks_decoded", static_cast<std::size_t>(decoded));
        json.kv("coalesced_reads", static_cast<std::size_t>(coalesced));
        json.kv("cache_hit_rate", bench::cache_hit_rate(st));
        json.kv("bytes_out",
                static_cast<std::size_t>(metric(st, "bytes_out")));
        json.end_record();
        std::fprintf(stderr,
                     "serving daemon  %zu clients: %7.1f reads/s, p50 "
                     "%.2f ms, p99 %.2f ms, %llu decodes of %zu blocks, "
                     "%llu coalesced\n",
                     clients, r.reads_per_s(), p50, p99,
                     static_cast<unsigned long long>(decoded), total_blocks,
                     static_cast<unsigned long long>(coalesced));
      }
    }
  }
  if (out != stdout) std::fclose(out);
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "run_perf_suite: error: %s\n", e.what());
    return 1;
  }
}
