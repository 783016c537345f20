// Tracked performance baseline: compress/decompress throughput, compression
// factor, and per-stage breakdown on 1D/2D/3D synthetic fields, measured for
// both hot-path modes (plus the rANS entropy backend) in the same run so
// speedups are apples-to-apples on the same machine:
//   fast  — specialized wavefront kernels, exact divide (bit-identity with
//           the generic walk is pinned by tests/test_kernels.cpp and the
//           golden streams in tests/test_format.cpp),
//   turbo — reciprocal-multiply quantization; NOT bit-identical, so the
//           suite verifies the error-bound contract by decompressing and
//           reporting max |x - x'| against eb,
//   rans  — the fast walk with the rANS entropy backend.
// A threaded section measures the parallel slab codec (fast + turbo) at
// --threads N workers, an archive-serving section measures concurrent
// region reads on one shared ArchiveReader (skewed hot-set mix, decoded-
// block cache off/on, results verified bit-identical to sequential reads),
// and a "machine" header record captures the context
// (hardware_concurrency, build type, reps) that makes BENCH_PRn.json files
// comparable across PRs.
//
// Emits a JSON array (schema checked in CI by tools/bench_diff.py); the
// committed BENCH_PR*.json files form the repo's perf trajectory.
//
// Usage: run_perf_suite [--smoke] [--reps N] [--threads N] [--out FILE]
//                       [--filter REGEX]
//   --smoke     tiny sizes (CI bit-rot guard; numbers are meaningless)
//   --reps N    timing repetitions, best-of (default 3)
//   --threads N workers for the parallel section (default 8)
//   --out       write JSON to FILE instead of stdout
//   --filter    run only sections whose tag matches REGEX (search, not
//               full match).  Tags: <field>/<mode> for the sequential
//               modes (fast|turbo|rans),
//               <field>/parallel/<mode> (fast|turbo|rans) for the slab
//               codec, and serving/(nocache|cache|parity|daemon|mmap|
//               sharded) for the archive-serving sections.  Cross-record
//               outputs (the rans/fast recon check, the speedup record)
//               appear only when every input they need also matched.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "archive/archive.hpp"
#include "bench_util.hpp"
#include "common/bytebuffer.hpp"
#include "common/exec_policy.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/compressor.hpp"
#include "core/format.hpp"
#include "core/quantizer.hpp"
#include "data/generators.hpp"
#include "encoding/huffman.hpp"
#include "encoding/rans.hpp"
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

double best_of(int reps, const std::function<void()>& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    fn();
    best = std::min(best, t.seconds());
  }
  return best;
}

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
  st.compress_s = best_of(reps, [&] {
    stream = compress(f.values, f.dims, timed);
  });
  st.stream_bytes = stream.size();

  std::vector<float> out(f.dims.count());
  st.decompress_s = best_of(reps, [&] {
    (void)decompress_into(stream, out, timed.exec);
  });
  st.max_error = max_abs_error(f.values, out);

  // Stage breakdown.  The resolved bound equals eb_abs here (benches set
  // eb_abs explicitly), so the standalone pass matches compress() work.
  st.pass_s = best_of(reps, [&] {
    (void)prediction_quantization_pass(f.values, f.dims, opts.layers,
                                       opts.interval_bits, opts.eb_abs,
                                       false, timed.exec);
  });
  const auto pass = prediction_quantization_pass(
      f.values, f.dims, opts.layers, opts.interval_bits, opts.eb_abs, false,
      timed.exec);
  const LinearQuantizer quantizer(opts.interval_bits, opts.eb_abs);
  const bool rans = opts.exec.entropy == EntropyBackend::kRans;
  st.entropy_encode_s = best_of(reps, [&] {
    ByteWriter w;
    if (rans)
      rans_encode(pass.codes, quantizer.alphabet_size(), w);
    else
      huffman_encode(pass.codes, quantizer.alphabet_size(), w);
  });
  // Reuse a code vector across reps like decompress_into does with the
  // arena, so entropy_decode_s and decompress_s amortize allocation the
  // same way and their difference (kernel_decode_s) stays meaningful.
  std::vector<std::uint16_t> decode_codes;
  st.entropy_decode_s = best_of(reps, [&] {
    ByteReader in(stream);
    (void)read_header(in);
    if (rans)
      rans_decode_into(in, decode_codes, f.dims.count());
    else
      huffman_decode_into(in, decode_codes);
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
  json.kv("cf", static_cast<double>(raw_bytes) /
                    static_cast<double>(st.stream_bytes));
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

}  // namespace

int main(int argc, char** argv) {
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

  int exit_code = 0;
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

    ThreadPool pool(threads);
    for (std::size_t fi = 0; fi < 3; ++fi) {
      const data::Field& f = fields[fi];
      const std::string fname = field_names[fi];
      const std::size_t raw_bytes = f.values.size() * sizeof(float);
      Options opts;
      opts.eb_abs = 1e-3;

      const bool w_fast = want(fname + "/fast");
      const bool w_turbo = want(fname + "/turbo");
      const bool w_rans = want(fname + "/rans");
      const bool w_par_fast = want(fname + "/parallel/fast");
      const bool w_par_turbo = want(fname + "/parallel/turbo");
      const bool w_par_rans = want(fname + "/parallel/rans");
      if (!(w_fast || w_turbo || w_rans || w_par_fast || w_par_turbo ||
            w_par_rans))
        continue;

      // Three-way comparison through per-call policies: same process, no
      // global state.  "rans" is the fast walk with the rANS entropy
      // backend — same codes, different entropy stage — so its
      // reconstruction must be bit-identical to fast's.
      std::vector<float> fast_recon, rans_recon;
      StageTimes fast, turbo, rans;
      if (w_fast) fast = measure(f, opts, reps, &fast_recon);
      if (w_turbo) {
        Options o = opts;
        o.exec.mode = HotPathMode::kTurbo;
        turbo = measure(f, o, reps, nullptr);
      }
      if (w_rans) {
        Options o = opts;
        o.exec.entropy = EntropyBackend::kRans;
        rans = measure(f, o, reps, &rans_recon);
      }
      if (w_turbo && !(turbo.max_error <= opts.eb_abs)) {
        std::fprintf(stderr,
                     "run_perf_suite: TURBO BOUND VIOLATION on %s "
                     "(max_error %.3e > eb %.3e)\n",
                     fname.c_str(), turbo.max_error, opts.eb_abs);
        exit_code = 1;
      }
      if (w_rans && w_fast &&
          std::memcmp(rans_recon.data(), fast_recon.data(),
                      fast_recon.size() * sizeof(float)) != 0) {
        std::fprintf(stderr,
                     "run_perf_suite: RANS/FAST RECON DIVERGENCE on %s\n",
                     fname.c_str());
        exit_code = 1;
      }
      if (w_rans && !(rans.max_error <= opts.eb_abs)) {
        std::fprintf(stderr,
                     "run_perf_suite: RANS BOUND VIOLATION on %s\n",
                     fname.c_str());
        exit_code = 1;
      }

      if (w_fast)
        emit_mode_record(json, field_names[fi], f.dims.rank(),
                         f.values.size(), raw_bytes, fast, "fast",
                         opts.eb_abs, reps);
      if (w_turbo)
        emit_mode_record(json, field_names[fi], f.dims.rank(),
                         f.values.size(), raw_bytes, turbo, "turbo",
                         opts.eb_abs, reps);
      if (w_rans)
        emit_mode_record(json, field_names[fi], f.dims.rank(),
                         f.values.size(), raw_bytes, rans, "rans",
                         opts.eb_abs, reps);

      // Threaded slab codec: fast + turbo + rans (fast walk, rANS
      // entropy), with the per-slab entropy CPU time carried out of the
      // codec itself.
      ParallelTimes par_fast, par_turbo, par_rans;
      if (w_par_fast) par_fast = measure_parallel(f, opts, reps, pool);
      if (w_par_turbo) {
        Options o = opts;
        o.exec.mode = HotPathMode::kTurbo;
        par_turbo = measure_parallel(f, o, reps, pool);
      }
      if (w_par_rans) {
        Options o = opts;
        o.exec.entropy = EntropyBackend::kRans;
        par_rans = measure_parallel(f, o, reps, pool);
      }
      struct ParRow {
        const ParallelTimes* p;
        const char* mode;
        bool ran;
      };
      const ParRow par_rows[] = {{&par_fast, "fast", w_par_fast},
                                 {&par_turbo, "turbo", w_par_turbo},
                                 {&par_rans, "rans", w_par_rans}};
      for (const auto& row : par_rows) {
        if (!row.ran) continue;
        const ParallelTimes* p = row.p;
        if (!(p->max_error <= opts.eb_abs)) {
          std::fprintf(stderr,
                       "run_perf_suite: PARALLEL BOUND VIOLATION on %s "
                       "(%s)\n",
                       fname.c_str(), row.mode);
          exit_code = 1;
        }
        json.begin_record();
        json.kv("bench", "perf_suite_parallel");
        json.kv("field", field_names[fi]);
        json.kv("mode", row.mode);
        json.kv("rank", f.dims.rank());
        json.kv("threads", threads);
        json.kv("chunks", p->chunks);
        json.kv("raw_bytes", raw_bytes);
        json.kv("stream_bytes", p->stream_bytes);
        json.kv("cf", static_cast<double>(raw_bytes) /
                          static_cast<double>(p->stream_bytes));
        json.kv("eb_abs", opts.eb_abs);
        json.kv("reps", static_cast<std::size_t>(reps));
        json.kv("compress_seconds", p->compress_s);
        json.kv("decompress_seconds", p->decompress_s);
        json.kv("compress_gbps", gbps(raw_bytes, p->compress_s));
        json.kv("decompress_gbps", gbps(raw_bytes, p->decompress_s));
        json.kv("entropy_encode_seconds", p->entropy_encode_s);
        json.kv("entropy_decode_seconds", p->entropy_decode_s);
        json.kv("max_error", p->max_error);
        json.end_record();
      }

      // Turbo measured against fast on the same machine and run.
      if (w_fast && w_turbo && w_par_turbo) {
        json.begin_record();
        json.kv("bench", "perf_suite_speedup");
        json.kv("field", field_names[fi]);
        json.kv("rank", f.dims.rank());
        json.kv("speedup_compress_turbo", fast.compress_s / turbo.compress_s);
        json.kv("speedup_decompress_turbo",
                fast.decompress_s / turbo.decompress_s);
        json.kv("speedup_compress_parallel_turbo",
                fast.compress_s / par_turbo.compress_s);
        json.kv("turbo_max_error", turbo.max_error);
        json.kv("turbo_cf_delta",
                static_cast<double>(raw_bytes) /
                        static_cast<double>(turbo.stream_bytes) -
                    static_cast<double>(raw_bytes) /
                        static_cast<double>(fast.stream_bytes));
        json.end_record();
      }

      if (w_fast && w_turbo)
        std::fprintf(
            stderr,
            "%-12s  compress %6.1f -> %6.1f MB/s (turbo %.2fx)   "
            "decompress %6.1f MB/s   CF %.2f   turbo max_err %.2e\n",
            fname.c_str(), gbps(raw_bytes, fast.compress_s) * 1e3,
            gbps(raw_bytes, turbo.compress_s) * 1e3,
            fast.compress_s / turbo.compress_s,
            gbps(raw_bytes, fast.decompress_s) * 1e3,
            static_cast<double>(raw_bytes) /
                static_cast<double>(fast.stream_bytes),
            turbo.max_error);
      if (w_rans && w_fast)
        std::fprintf(
            stderr,
            "              rans: entropy enc %.3fs vs %.3fs, dec %.3fs vs "
            "%.3fs (huffman), CF %.2f vs %.2f\n",
            rans.entropy_encode_s, fast.entropy_encode_s,
            rans.entropy_decode_s, fast.entropy_decode_s,
            static_cast<double>(raw_bytes) /
                static_cast<double>(rans.stream_bytes),
            static_cast<double>(raw_bytes) /
                static_cast<double>(fast.stream_bytes));
      if (w_par_fast && w_par_turbo)
        std::fprintf(
            stderr,
            "              parallel(%zut) compress %6.1f (fast) %6.1f "
            "(turbo) MB/s   decompress %6.1f MB/s\n",
            threads, gbps(raw_bytes, par_fast.compress_s) * 1e3,
            gbps(raw_bytes, par_turbo.compress_s) * 1e3,
            gbps(raw_bytes, par_turbo.decompress_s) * 1e3);
    }

    // Archive serving: concurrent region reads from one shared reader on
    // the 3D field — the random-access path the SZA container exists for.
    // 80% of reads target a small hot set; the cached configuration is
    // measured in steady state (one untimed warm sweep first), and every
    // distinct region is verified bit-identical to a sequential read.
    const bool w_serve_nocache = want("serving/nocache");
    const bool w_serve_cache = want("serving/cache");
    const bool w_serve_parity = want("serving/parity");
    const bool w_serve_daemon = want("serving/daemon");
    const bool w_serve_mmap = want("serving/mmap");
    const bool w_serve_sharded = want("serving/sharded");
    if (w_serve_nocache || w_serve_cache || w_serve_parity ||
        w_serve_daemon || w_serve_mmap || w_serve_sharded) {
      const data::Field& f3 = fields[2];
      const std::string apath = "/tmp/run_perf_suite_archive.sza";
      const std::size_t bs = smoke ? 8 : 32;
      const Dims block{std::min(bs, f3.dims.extent(0)),
                       std::min(bs, f3.dims.extent(1)),
                       std::min(bs, f3.dims.extent(2))};
      {
        archive::ArchiveWriter w(apath, threads);
        w.append_field("v", std::span<const float>(f3.values), f3.dims,
                       block, "sz14", 1e-3);
        w.finish();
      }

      // Skewed region mix (deterministic, shared with
      // bench_archive_random_access via bench_util).
      const std::size_t ext = smoke ? 6 : 16;
      constexpr std::size_t kHot = 6;
      const std::size_t n_regions = smoke ? 8 : 24;
      const std::size_t reads_per_thread = smoke ? 4 : 24;
      const auto regions = bench::serving_regions(f3.dims, n_regions, ext);
      std::size_t region_values = 0;
      for (const auto& r : regions) region_values += r.count();

      for (const bool cached : {false, true}) {
        if (!(cached ? w_serve_cache : w_serve_nocache)) continue;
        archive::ArchiveReader reader(apath, threads);
        if (cached) reader.set_cache_capacity(256u << 20);

        // Sequential ground truth (also the cold warm-up for the cache).
        std::vector<std::vector<float>> want;
        want.reserve(regions.size());
        for (const auto& r : regions)
          want.push_back(reader.read_region("v", r));

        reader.reset_counters();
        std::atomic<std::size_t> diverged{0};
        std::vector<std::thread> workers;
        Timer t;
        for (std::size_t w = 0; w < threads; ++w) {
          workers.emplace_back([&, w] {
            Rng wr(1000 + w);
            for (std::size_t k = 0; k < reads_per_thread; ++k) {
              const std::size_t i =
                  bench::serving_pick(wr, kHot, regions.size());
              // A throw must surface as a divergence diagnostic, not a
              // std::terminate from an escaping worker exception.
              try {
                if (reader.read_region("v", regions[i]) != want[i])
                  ++diverged;
              } catch (const std::exception& e) {
                if (diverged.fetch_add(1) == 0)
                  std::fprintf(stderr, "serving read threw: %s\n", e.what());
              }
            }
          });
        }
        for (auto& th : workers) th.join();
        const double seconds = t.seconds();
        if (diverged.load() != 0) {
          std::fprintf(stderr,
                       "run_perf_suite: SERVING DIVERGENCE (%s cache)\n",
                       cached ? "with" : "no");
          exit_code = 1;
        }

        const std::size_t reads = threads * reads_per_thread;
        const double hit_rate = bench::cache_hit_rate(reader.cache_hits(),
                                                      reader.cache_misses());
        json.begin_record();
        json.kv("bench", "perf_suite_archive_serving");
        json.kv("field", "hurricane3d");
        json.kv("mode", cached ? "cache" : "nocache");
        json.kv("threads", threads);
        json.kv("regions", regions.size());
        json.kv("region_values_total", region_values);
        json.kv("reads", reads);
        json.kv("seconds", seconds);
        json.kv("reads_per_s", static_cast<double>(reads) / seconds);
        json.kv("blocks_decoded",
                static_cast<std::size_t>(reader.blocks_decoded()));
        json.kv("cache_hit_rate", hit_rate);
        json.end_record();
        std::fprintf(stderr,
                     "serving %-7s  %zu threads: %7.1f reads/s, %llu "
                     "decodes, hit rate %.2f\n",
                     cached ? "cache" : "nocache", threads,
                     static_cast<double>(reads) / seconds,
                     static_cast<unsigned long long>(reader.blocks_decoded()),
                     hit_rate);
      }

      // Parity-on serving: the same skewed mix against a parity-enabled
      // twin of the archive (default 16-block XOR groups).  Parity is only
      // consulted when a CRC fails, so the clean-path read rate should sit
      // on top of the nocache record — this record keeps that claim
      // measured instead of assumed (the write cost is the parity bytes).
      if (w_serve_parity) {
        const std::string ppath = "/tmp/run_perf_suite_archive_parity.sza";
        {
          archive::ArchiveWriter w(ppath, threads, {},
                                   archive::kDefaultParityGroup);
          w.append_field("v", std::span<const float>(f3.values), f3.dims,
                         block, "sz14", 1e-3);
          w.finish();
        }
        archive::ArchiveReader reader(ppath, threads);
        std::vector<std::vector<float>> want;
        want.reserve(regions.size());
        for (const auto& r : regions)
          want.push_back(reader.read_region("v", r));

        reader.reset_counters();
        std::atomic<std::size_t> diverged{0};
        std::vector<std::thread> workers;
        Timer t;
        for (std::size_t w = 0; w < threads; ++w) {
          workers.emplace_back([&, w] {
            Rng wr(3000 + w);
            for (std::size_t k = 0; k < reads_per_thread; ++k) {
              const std::size_t i =
                  bench::serving_pick(wr, kHot, regions.size());
              try {
                if (reader.read_region("v", regions[i]) != want[i])
                  ++diverged;
              } catch (const std::exception& e) {
                if (diverged.fetch_add(1) == 0)
                  std::fprintf(stderr, "parity serving read threw: %s\n",
                               e.what());
              }
            }
          });
        }
        for (auto& th : workers) th.join();
        const double seconds = t.seconds();
        if (diverged.load() != 0 || reader.read_repairs() != 0) {
          std::fprintf(stderr,
                       "run_perf_suite: PARITY SERVING DIVERGENCE\n");
          exit_code = 1;
        }

        const std::size_t reads = threads * reads_per_thread;
        json.begin_record();
        json.kv("bench", "perf_suite_archive_serving");
        json.kv("field", "hurricane3d");
        json.kv("mode", "parity");
        json.kv("threads", threads);
        json.kv("regions", regions.size());
        json.kv("region_values_total", region_values);
        json.kv("reads", reads);
        json.kv("seconds", seconds);
        json.kv("reads_per_s", static_cast<double>(reads) / seconds);
        json.kv("blocks_decoded",
                static_cast<std::size_t>(reader.blocks_decoded()));
        json.kv("cache_hit_rate", 0.0);
        json.end_record();
        std::fprintf(stderr,
                     "serving parity   %zu threads: %7.1f reads/s, %llu "
                     "decodes, 0 repairs\n",
                     threads, static_cast<double>(reads) / seconds,
                     static_cast<unsigned long long>(
                         reader.blocks_decoded()));
        std::remove(ppath.c_str());
      }
      // mmap-fetch serving: the zero-copy read path — payload bytes decode
      // straight out of the page cache instead of being staged through
      // pread.  Same skewed mix, cache off, so the record isolates the
      // fetch path; every read is still verified bit-identical.  The
      // sharded variant additionally splits the archive into ~64 KiB shard
      // files (smoke: 8 KiB) and serves the same mix through the manifest,
      // mmap-on — the full tentpole stack in one measured scenario.
      for (const bool sharded : {false, true}) {
        if (!(sharded ? w_serve_sharded : w_serve_mmap)) continue;
        const std::string mpath =
            sharded ? "/tmp/run_perf_suite_archive.szm" : apath;
        if (sharded) {
          archive::ArchiveWriter w(mpath, threads, {}, 0,
                                   smoke ? (8u << 10) : (64u << 10));
          w.append_field("v", std::span<const float>(f3.values), f3.dims,
                         block, "sz14", 1e-3);
          w.finish();
        }
        archive::ArchiveReader reader(mpath, threads, {},
                                      archive::OpenMode::kStrict,
                                      FetchMode::kMmap);
        if (reader.fetch_mode() != FetchMode::kMmap)
          std::fprintf(stderr,
                       "run_perf_suite: warning: mmap fell back to pread\n");
        std::vector<std::vector<float>> want;
        want.reserve(regions.size());
        for (const auto& r : regions)
          want.push_back(reader.read_region("v", r));

        reader.reset_counters();
        std::atomic<std::size_t> diverged{0};
        std::vector<std::thread> workers;
        Timer t;
        for (std::size_t w = 0; w < threads; ++w) {
          workers.emplace_back([&, w] {
            Rng wr(sharded ? 9000 + w : 5000 + w);
            for (std::size_t k = 0; k < reads_per_thread; ++k) {
              const std::size_t i =
                  bench::serving_pick(wr, kHot, regions.size());
              try {
                if (reader.read_region("v", regions[i]) != want[i])
                  ++diverged;
              } catch (const std::exception& e) {
                if (diverged.fetch_add(1) == 0)
                  std::fprintf(stderr, "mmap serving read threw: %s\n",
                               e.what());
              }
            }
          });
        }
        for (auto& th : workers) th.join();
        const double seconds = t.seconds();
        if (diverged.load() != 0) {
          std::fprintf(stderr,
                       "run_perf_suite: %s SERVING DIVERGENCE\n",
                       sharded ? "SHARDED" : "MMAP");
          exit_code = 1;
        }

        const std::size_t reads = threads * reads_per_thread;
        json.begin_record();
        json.kv("bench", "perf_suite_archive_serving");
        json.kv("field", "hurricane3d");
        json.kv("mode", sharded ? "sharded" : "mmap");
        json.kv("threads", threads);
        json.kv("regions", regions.size());
        json.kv("region_values_total", region_values);
        json.kv("reads", reads);
        json.kv("seconds", seconds);
        json.kv("reads_per_s", static_cast<double>(reads) / seconds);
        json.kv("blocks_decoded",
                static_cast<std::size_t>(reader.blocks_decoded()));
        json.kv("cache_hit_rate", 0.0);
        json.end_record();
        std::fprintf(stderr,
                     "serving %-7s  %zu threads: %7.1f reads/s, %llu "
                     "decodes (mmap fetch)\n",
                     sharded ? "sharded" : "mmap", threads,
                     static_cast<double>(reads) / seconds,
                     static_cast<unsigned long long>(
                         reader.blocks_decoded()));
        if (sharded) {
          std::remove(mpath.c_str());
          for (std::size_t i = 0; i < 4096; ++i) {
            const std::string sp = archive::shard_file_name(mpath, i);
            if (std::remove(sp.c_str()) != 0) break;
          }
        }
      }

      // Serving daemon end-to-end: the same skewed mix pushed through a
      // real Server + Client pair over the loopback transport — protocol
      // framing, event loop, pool dispatch, coalescing and cache all in
      // the measured path, exactly what `sz14 serve` runs in production.
      // Per-request wall latency feeds the p50/p99 records; every response
      // is verified bit-identical to a direct reader, and the coalescing
      // invariant (decodes <= unique blocks after warm-up) is asserted,
      // not assumed.
      if (w_serve_daemon) {
        const std::size_t clients = std::max<std::size_t>(2, threads);
        const std::size_t requests_per_client = smoke ? 6 : 48;
        serve::ServerConfig cfg;
        cfg.transport = "loopback";
        cfg.endpoint = "perf-suite";
        cfg.threads = threads;
        cfg.cache_bytes = 256u << 20;
        serve::Server server(apath, cfg);
        server.start();

        std::vector<std::vector<float>> want;
        {
          archive::ArchiveReader direct(apath, threads);
          want.reserve(regions.size());
          for (const auto& r : regions)
            want.push_back(direct.read_region("v", r));
        }

        std::atomic<std::size_t> diverged{0};
        std::vector<std::vector<double>> lat_ms(clients);
        std::vector<std::thread> workers;
        Timer t;
        for (std::size_t c = 0; c < clients; ++c) {
          workers.emplace_back([&, c] {
            try {
              serve::Client client("loopback", server.endpoint());
              Rng wr(7000 + c);
              lat_ms[c].reserve(requests_per_client);
              for (std::size_t k = 0; k < requests_per_client; ++k) {
                const std::size_t i =
                    bench::serving_pick(wr, kHot, regions.size());
                Timer rt;
                const auto got = client.read_region("v", regions[i]);
                lat_ms[c].push_back(rt.seconds() * 1e3);
                if (got != want[i]) ++diverged;
              }
            } catch (const std::exception& e) {
              if (diverged.fetch_add(1) == 0)
                std::fprintf(stderr, "serving client threw: %s\n", e.what());
            }
          });
        }
        for (auto& th : workers) th.join();
        const double seconds = t.seconds();
        server.stop();
        if (diverged.load() != 0) {
          std::fprintf(stderr, "run_perf_suite: DAEMON SERVING DIVERGENCE\n");
          exit_code = 1;
        }

        const serve::ServerStats st = server.stats();
        // Cold burst + warm steady state: the single-flight map and cache
        // together bound decodes by the number of blocks the region set
        // touches, regardless of client count.
        const std::size_t total_blocks =
            server.reader().field("v").blocks.size();
        if (st.blocks_decoded > total_blocks) {
          std::fprintf(stderr,
                       "run_perf_suite: COALESCING LEAK (%llu decodes > "
                       "%zu blocks)\n",
                       static_cast<unsigned long long>(st.blocks_decoded),
                       total_blocks);
          exit_code = 1;
        }

        std::vector<double> all_ms;
        for (const auto& v : lat_ms)
          all_ms.insert(all_ms.end(), v.begin(), v.end());
        const double p50 = bench::percentile(all_ms, 50.0);
        const double p99 = bench::percentile(all_ms, 99.0);
        const std::size_t reads = all_ms.size();

        json.begin_record();
        json.kv("bench", "perf_suite_serving_daemon");
        json.kv("field", "hurricane3d");
        json.kv("transport", "loopback");
        json.kv("clients", clients);
        json.kv("threads", threads);
        json.kv("regions", regions.size());
        json.kv("reads", reads);
        json.kv("seconds", seconds);
        json.kv("reads_per_s", static_cast<double>(reads) / seconds);
        json.kv("latency_p50_ms", p50);
        json.kv("latency_p99_ms", p99);
        json.kv("blocks_decoded",
                static_cast<std::size_t>(st.blocks_decoded));
        json.kv("coalesced_reads",
                static_cast<std::size_t>(st.coalesced_reads));
        json.kv("cache_hit_rate",
                bench::cache_hit_rate(st.cache_hits, st.cache_misses));
        json.kv("bytes_out", static_cast<std::size_t>(st.bytes_out));
        json.end_record();
        std::fprintf(stderr,
                     "serving daemon  %zu clients: %7.1f reads/s, p50 "
                     "%.2f ms, p99 %.2f ms, %llu decodes, %llu coalesced\n",
                     clients, static_cast<double>(reads) / seconds, p50, p99,
                     static_cast<unsigned long long>(st.blocks_decoded),
                     static_cast<unsigned long long>(st.coalesced_reads));
      }
      std::remove(apath.c_str());
    }
  }
  if (out != stdout) std::fclose(out);
  return exit_code;
}
