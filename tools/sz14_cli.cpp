// sz14 — command-line front end for the SZ-1.4 reproduction, mirroring the
// workflow of the reference `sz` executable: compress/decompress raw
// binary arrays, inspect streams, and run the paper's tuning analyses.
//
//   sz14 compress   -i in.f32 -o out.sz -d 1800x3600 --rel 1e-4
//                   [--abs EB] [--dtype f32|f64] [-m BITS] [-n LAYERS]
//                   [--decorrelate]
//   sz14 decompress -i in.sz  -o out.f32
//   sz14 info       -i in.sz
//   sz14 analyze    -i in.f32 -d 1800x3600 --rel 1e-4 [--dtype f32]
//
// Block-sharded multi-field archives (SZA containers, src/archive/):
//
//   sz14 archive create  -o out.sza --field name=file:dims [--field ...]
//                        [--codec sz14|zfp_like|fpzip_like|gzip_like]
//                        (--abs EB | --rel R) [--dtype f32|f64]
//                        [--block B1xB2[..]] [-t THREADS]
//                        [--parity [--parity-group N]]
//   sz14 archive ls      -i in.sza
//   sz14 archive stat    -i in.sza [-f name]
//   sz14 archive extract -i in.sza -f name -o out.raw
//                        [--origin O1xO2[..] --shape S1xS2[..]] [-t THREADS]
//   sz14 archive cat     -i in.sza -f name [--origin .. --shape ..]
//                        [--limit N] [-t THREADS]
//   sz14 archive fsck    -i in.sza [--repair]     (crash recovery; ls/stat/
//                        extract/cat also accept --salvage, and --degraded
//                        additionally zero-fills unrecoverable blocks)
//   sz14 archive scrub   -i in.sza [--repair] [-t THREADS]
//                        (verify every payload CRC; --repair heals what
//                        single parity can reconstruct, in place)
//
// Serving daemon (src/serve/): a long-lived reader behind a socket.
//
//   sz14 serve -i in.sza [--transport tcp|unix] [--listen ENDPOINT]
//              [-t THREADS] [--cache BYTES[K|M|G]] [--max-sessions N]
//              [--no-coalesce] [--degraded]
//   sz14 get   --connect ENDPOINT [--transport tcp|unix]
//              (--ls | --stats | --stat -f NAME | --scrub [--repair] |
//               -f NAME [-o OUT] [--origin .. --shape ..] [--limit N])
//
// Failpoint registry (fault-injection drills):
//
//   sz14 failpoints ls      (the site names SZ14_FAILPOINTS can arm)
//
// Raw files are flat little-endian arrays; the shape is given with -d
// (slowest dimension first, 'x'-separated), exactly how scientific data
// sets such as the paper's ATM/APS/hurricane files ship.
#include <algorithm>
#include <atomic>
#include <cctype>
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "archive/archive.hpp"
#include "common/exec_policy.hpp"
#include "common/failpoint.hpp"
#include "common/timer.hpp"
#include "core/adaptive.hpp"
#include "core/analysis.hpp"
#include "core/compressor.hpp"
#include "core/format.hpp"
#include "core/pointwise.hpp"
#include "data/io.hpp"
#include "metrics/metrics.hpp"
#include "parallel/parallel_codec.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace {

using namespace sz14;

struct Args {
  std::string command;
  std::string input;
  std::string output;
  std::string dims_text;
  std::string dtype = "f32";
  Options opts;
  double pwrel = std::numeric_limits<double>::quiet_NaN();
  std::size_t threads = 1;  // > 1 selects the parallel slab container
  bool turbo = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "error: %s\n\n", why);
  std::fprintf(stderr,
               "usage:\n"
               "  sz14 compress   -i IN -o OUT -d D1xD2[xD3[xD4]] "
               "(--abs EB | --rel EB | --pwrel P) [--dtype f32|f64] "
               "[-m BITS] [-n LAYERS] [--decorrelate] [--turbo] "
               "[--entropy huffman|rans] "
               "[-t THREADS]   (-t: f32 slab container; 0 = all cores)\n"
               "  sz14 decompress -i IN -o OUT [-t THREADS]\n"
               "  sz14 info       -i IN\n"
               "  sz14 analyze    -i IN -d DIMS (--abs EB | --rel EB) "
               "[--dtype f32|f64]\n"
               "  sz14 archive create  -o OUT --field NAME=FILE:DIMS "
               "[--field ...] [--codec C] (--abs EB | --rel R) "
               "[--dtype f32|f64] [--block DIMS] [-t THREADS] [--turbo] "
               "[--entropy huffman|rans] [--parity [--parity-group N]] "
               "[--shard-size BYTES[K|M|G]]\n"
               "  sz14 archive ls      -i IN [--mmap]\n"
               "  sz14 archive stat    -i IN [-f NAME] [--mmap]\n"
               "  sz14 archive extract -i IN -f NAME -o OUT "
               "[--origin DIMS --shape DIMS] [-t THREADS] [--mmap]\n"
               "  sz14 archive cat     -i IN -f NAME "
               "[--origin DIMS --shape DIMS] [--limit N] [-t THREADS] "
               "[--mmap]\n"
               "  sz14 archive fsck    -i IN [--repair]\n"
               "  sz14 archive scrub   -i IN [--repair] [-t THREADS]\n"
               "  sz14 serve -i IN [--transport tcp|unix] "
               "[--listen ENDPOINT] [-t THREADS] [--cache BYTES[K|M|G]] "
               "[--max-sessions N] [--no-coalesce] [--degraded] [--mmap] "
               "[--idle-timeout MS] [--drain-grace MS]\n"
               "  sz14 get   --connect ENDPOINT [--transport tcp|unix] "
               "(--ls | --stats | --stat -f NAME | --scrub [--repair] | "
               "-f NAME [-o OUT] "
               "[--origin DIMS --shape DIMS] [--limit N]) "
               "[--timeout MS] [--connect-timeout MS] [--retries N]\n"
               "  sz14 failpoints ls\n"
               "\n"
               "notes:\n"
               "  archive create --parity appends one XOR parity block per "
               "--parity-group\n"
               "  data blocks (default 16); reads then repair any single "
               "damaged block\n"
               "  per group transparently.\n"
               "  archive create --shard-size rolls payloads into numbered "
               "shard files\n"
               "  (OUT.s0000, OUT.s0001, ...) once the current shard holds "
               "that many\n"
               "  bytes; OUT becomes a manifest indexing them.  Without it "
               "the classic\n"
               "  single-file container is written.  ls/stat/extract/cat/"
               "fsck/scrub and\n"
               "  serve open both layouts transparently.\n"
               "  --mmap (ls/stat/extract/cat/serve) decodes straight from "
               "memory-mapped\n"
               "  payload bytes with readahead advice, falling back to pread "
               "when\n"
               "  mapping is unavailable; output is bit-identical either "
               "way.\n"
               "  archive ls/stat/extract/cat accept --salvage to open a "
               "crash-damaged\n"
               "  archive at its last valid checkpoint instead of failing, "
               "and --degraded\n"
               "  to additionally zero-fill unrecoverable blocks instead of "
               "erroring.\n"
               "  serve --degraded serves a damaged archive the same way "
               "(responses\n"
               "  carry a degraded flag + hole list).\n"
               "  serve drains gracefully on SIGTERM (finish in-flight "
               "requests, flush,\n"
               "  close; bounded by --drain-grace) and stops immediately on "
               "SIGINT.\n"
               "\n"
               "exit codes (get/serve/fsck/scrub):\n"
               "  0  success (fsck/scrub: clean, or --repair healed "
               "everything)\n"
               "  1  error (I/O, server-side failure; fsck/scrub: "
               "unrecoverable damage)\n"
               "  2  usage\n"
               "  3  connect/bind failure (get: endpoint unreachable after "
               "retries;\n"
               "     serve: cannot listen; fsck/scrub: nothing salvageable)\n"
               "  4  timeout (dial, handshake, or request deadline "
               "exceeded);\n"
               "     fsck/scrub: repairable damage found, rerun with "
               "--repair\n"
               "  5  protocol error (malformed/unexpected wire data, "
               "rejected request;\n"
               "     get --scrub: a scrub is already running)\n"
               "  6  field not found\n");
  std::exit(2);
}

/// Shared by `compress` and `archive create`: map an --entropy value onto
/// the per-call ExecPolicy backend selection.
EntropyBackend parse_entropy(const std::string& value) {
  if (value == "huffman") return EntropyBackend::kHuffman;
  if (value == "rans") return EntropyBackend::kRans;
  usage("--entropy must be huffman|rans");
}

/// Upper bound for every -t: far above any core count, low enough that a
/// typo cannot ask for billions of workers.
constexpr std::size_t kMaxThreads = 1024;

/// The value of integer flag `flag`: plain decimal digits (no sign, no
/// trailing characters) no larger than `max`; anything else is a usage
/// error.
template <class T = std::size_t>
T parse_count(const std::string& flag, const std::string& text,
              T max = std::numeric_limits<T>::max()) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end ||
      v > static_cast<std::uint64_t>(max))
    usage((flag + " expects an integer in [0, " + std::to_string(max) +
           "], got '" + text + "'")
              .c_str());
  return static_cast<T>(v);
}

/// 'x'-separated extents of `flag` (-d, --block, --shape, --field), slowest
/// first.
Dims parse_dims(const std::string& flag, const std::string& text) {
  std::vector<std::size_t> ext;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('x', pos);
    if (end == std::string::npos) end = text.size();
    const std::string part = text.substr(pos, end - pos);
    if (part.empty()) usage(("empty dimension in " + flag).c_str());
    ext.push_back(parse_count(flag, part));
    pos = end + 1;
  }
  return Dims(std::span<const std::size_t>(ext));
}

/// "--cache 256M" style byte count: bare bytes or a K/M/G suffix
/// (binary multiples; a trailing B/iB is accepted, so 64M == 64MB ==
/// 64MiB).
std::size_t parse_size_bytes(const std::string& text) {
  unsigned long long v = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc()) usage(("bad size: " + text).c_str());
  std::string suffix(ptr, text.data() + text.size());
  for (char& c : suffix) c = static_cast<char>(std::tolower(c));
  if (!suffix.empty() && suffix.back() == 'b') {
    suffix.pop_back();
    if (!suffix.empty() && suffix.back() == 'i') suffix.pop_back();
  }
  unsigned shift = 0;
  if (suffix == "k") shift = 10;
  else if (suffix == "m") shift = 20;
  else if (suffix == "g") shift = 30;
  else if (!suffix.empty()) usage(("bad size suffix: " + text).c_str());
  if (shift && v > (std::numeric_limits<unsigned long long>::max() >> shift))
    usage(("size too large: " + text).c_str());
  return static_cast<std::size_t>(v << shift);
}

Args parse(int argc, char** argv) {
  if (argc < 2) usage("missing command");
  Args a;
  a.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "-i") {
      a.input = next();
    } else if (flag == "-o") {
      a.output = next();
    } else if (flag == "-d") {
      a.dims_text = next();
    } else if (flag == "--dtype") {
      a.dtype = next();
    } else if (flag == "--abs") {
      a.opts.eb_abs = std::stod(next());
    } else if (flag == "--rel") {
      a.opts.eb_rel = std::stod(next());
    } else if (flag == "--pwrel") {
      a.pwrel = std::stod(next());
    } else if (flag == "-m") {
      a.opts.interval_bits = parse_count<unsigned>(flag, next());
    } else if (flag == "-n") {
      a.opts.layers = parse_count<unsigned>(flag, next());
    } else if (flag == "--decorrelate") {
      a.opts.decorrelate = true;
    } else if (flag == "-t") {
      a.threads = parse_count(flag, next(), kMaxThreads);
    } else if (flag == "--turbo") {
      a.turbo = true;
    } else if (flag == "--entropy") {
      a.opts.exec.entropy = parse_entropy(next());
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.input.empty()) usage("-i is required");
  if (a.dtype != "f32" && a.dtype != "f64") usage("--dtype must be f32|f64");
  return a;
}

std::vector<double> read_f64(const std::string& path) {
  const auto bytes = data::read_bytes(path);
  if (bytes.size() % sizeof(double) != 0)
    throw std::runtime_error("f64 file size not divisible by 8: " + path);
  std::vector<double> values(bytes.size() / sizeof(double));
  std::memcpy(values.data(), bytes.data(), bytes.size());
  return values;
}

int cmd_compress(const Args& a) {
  if (a.output.empty() || a.dims_text.empty())
    usage("compress needs -o and -d");
  const Dims dims = parse_dims("-d", a.dims_text);
  // --turbo selects the reciprocal-multiply kernels for this call via the
  // per-call ExecPolicy; the stream stays |x - x'| <= eb conformant and
  // decodes normally.  Nothing process-wide is touched.
  Options opts = a.opts;
  if (a.turbo) opts.exec.mode = HotPathMode::kTurbo;
  CompressStats stats;
  Timer timer;
  std::vector<std::uint8_t> stream;
  std::size_t raw_bytes = 0;
  const bool threaded = a.threads != 1;  // -t 0 = all cores (shared pool)
  if (!std::isnan(a.pwrel)) {
    if (a.dtype != "f32") usage("--pwrel supports --dtype f32 only");
    if (threaded)
      std::fprintf(stderr,
                   "warning: -t is ignored with --pwrel (sequential path)\n");
    const auto values = data::read_f32(a.input);
    raw_bytes = values.size() * sizeof(float);
    stream = compress_pointwise_rel(values, dims, a.pwrel, opts, &stats);
  } else if (a.dtype == "f32" && threaded) {
    // Whole-field threaded path: slab container, shared Huffman table.
    // The pool travels on the policy: -t 0 borrows the process-wide pool
    // (one worker per core); an explicit count gets a private pool.
    const auto values = data::read_f32(a.input);
    raw_bytes = values.size() * sizeof(float);
    std::optional<ThreadPool> own;
    if (a.threads != 0) own.emplace(a.threads);
    opts.exec.pool = own ? &*own : &shared_pool();
    auto result = parallel_compress(values, dims, opts);
    stats.total = values.size();
    stats.predictable = result.predictable;
    stats.compressed_bytes = result.stream.size();
    stats.resolved_eb = result.eb_abs;
    stream = std::move(result.stream);
  } else if (a.dtype == "f32") {
    const auto values = data::read_f32(a.input);
    raw_bytes = values.size() * sizeof(float);
    stream = compress(std::span<const float>(values), dims, opts, &stats);
  } else {
    if (threaded)
      std::fprintf(
          stderr,
          "warning: -t is ignored for --dtype f64 (sequential path)\n");
    const auto values = read_f64(a.input);
    raw_bytes = values.size() * sizeof(double);
    stream = compress(std::span<const double>(values), dims, opts, &stats);
  }
  const double seconds = timer.seconds();
  data::write_bytes(a.output, stream);
  std::printf("compressed %zu -> %zu bytes (CF %.2f, %.2f bits/value) "
              "in %.3fs (%.1f MB/s)\n",
              raw_bytes, stream.size(),
              compression_factor(raw_bytes, stream.size()),
              bit_rate(stream.size(), stats.total), seconds,
              throughput_mbs(raw_bytes, seconds));
  std::printf("error bound %.6g, hitting rate %.1f%%\n", stats.resolved_eb,
              100.0 * stats.hitting_rate());
  return 0;
}

int cmd_decompress(const Args& a) {
  if (a.output.empty()) usage("decompress needs -o");
  const auto stream = data::read_bytes(a.input);
  Timer timer;
  // Parallel slab containers carry their own magic ("SZP2").
  if (is_parallel_stream(stream)) {
    std::optional<ThreadPool> own;
    if (a.threads != 0) own.emplace(a.threads);
    ThreadPool& pool = own ? *own : shared_pool();
    ExecPolicy exec;
    exec.pool = &pool;
    const auto out = parallel_decompress(stream, exec);
    data::write_f32(a.output, out.data);
    std::printf("decompressed %s f32 (parallel container, %zu threads) "
                "in %.3fs\n",
                out.dims.to_string().c_str(), pool.thread_count(),
                timer.seconds());
    return 0;
  }
  // Pointwise containers carry their own magic ("SZPR").
  if (stream.size() >= 4 && stream[0] == 0x52 && stream[1] == 0x50 &&
      stream[2] == 0x5A && stream[3] == 0x53) {
    const auto out = decompress_pointwise_rel(stream);
    data::write_f32(a.output, out.data);
    std::printf("decompressed %s f32 (pointwise rel %.3g) in %.3fs\n",
                out.dims.to_string().c_str(), out.pwrel, timer.seconds());
    return 0;
  }
  if (stream_dtype(stream) == StreamDtype::kF32) {
    const auto out = decompress(stream);
    data::write_f32(a.output, out.data);
    std::printf("decompressed %s f32 in %.3fs\n",
                out.dims.to_string().c_str(), timer.seconds());
  } else {
    const auto out = decompress64(stream);
    data::write_bytes(
        a.output,
        {reinterpret_cast<const std::uint8_t*>(out.data.data()),
         out.data.size() * sizeof(double)});
    std::printf("decompressed %s f64 in %.3fs\n",
                out.dims.to_string().c_str(), timer.seconds());
  }
  return 0;
}

int cmd_info(const Args& a) {
  const auto stream = data::read_bytes(a.input);
  ByteReader in(stream);
  const StreamHeader h = read_header(in);
  std::printf("sz14 stream v%u\n", kFormatVersion);
  std::printf("  dtype        : %s\n", h.dtype == kDtypeF64 ? "f64" : "f32");
  std::printf("  shape        : %s (%zu values)\n",
              h.dims.to_string().c_str(), h.dims.count());
  std::printf("  error bound  : %.6g (absolute)\n", h.eb_abs);
  std::printf("  intervals    : %u (m = %u)\n",
              (1u << h.interval_bits) - 1, h.interval_bits);
  std::printf("  layers       : %u\n", h.layers);
  std::printf("  decorrelate  : %s\n", h.decorrelate ? "yes" : "no");
  std::printf("  entropy      : %s\n", h.rans_entropy ? "rans" : "huffman");
  std::printf("  stream bytes : %zu (%.2f bits/value)\n", stream.size(),
              bit_rate(stream.size(), h.dims.count()));
  return 0;
}

int cmd_analyze(const Args& a) {
  if (a.dims_text.empty()) usage("analyze needs -d");
  if (a.dtype != "f32") usage("analyze currently supports --dtype f32 only");
  const Dims dims = parse_dims("-d", a.dims_text);
  const auto values = data::read_f32(a.input);
  if (values.size() != dims.count()) usage("file size does not match -d");
  double lo = values[0], hi = values[0];
  for (float v : values) {
    lo = std::min<double>(lo, v);
    hi = std::max<double>(hi, v);
  }
  const double eb = resolve_error_bound(a.opts, hi - lo);
  if (std::isnan(eb)) usage("analyze needs --abs or --rel");

  std::printf("value range %.6g, resolved absolute bound %.6g\n", hi - lo, eb);
  std::printf("layer sweep (Table II analysis):\n");
  for (const auto& row : layer_sweep(values, dims, 4, eb))
    std::printf("  n=%u  R_orig %5.1f%%  R_decomp %5.1f%%\n", row.layers,
                100 * row.rate_original, 100 * row.rate_decompressed);
  std::printf("best layer: %u\n", best_layer(values, dims, 4, eb));

  const auto suggestion = suggest_interval_bits(values, dims, eb);
  std::printf("interval suggestion: m=%u (%u intervals), est. hit rate "
              "%.1f%%%s\n",
              suggestion.interval_bits,
              (1u << suggestion.interval_bits) - 1,
              100 * suggestion.hitting_rate,
              suggestion.satisfied ? "" : " (theta NOT met; data too noisy "
                                          "for this bound)");
  return 0;
}

// ------------------------------------------------------------------ archive

struct FieldSpec {
  std::string name;
  std::string file;
  Dims dims;
};

/// Parse "name=file:dims" (dims 'x'-separated, slowest first).
FieldSpec parse_field_spec(const std::string& text) {
  const std::size_t eq = text.find('=');
  const std::size_t colon = text.rfind(':');
  if (eq == std::string::npos || colon == std::string::npos || colon <= eq)
    usage("--field expects NAME=FILE:DIMS");
  FieldSpec s;
  s.name = text.substr(0, eq);
  s.file = text.substr(eq + 1, colon - eq - 1);
  s.dims = parse_dims("--field", text.substr(colon + 1));
  if (s.name.empty() || s.file.empty()) usage("--field expects NAME=FILE:DIMS");
  return s;
}

struct ArchiveArgs {
  std::string sub;
  std::string input;
  std::string output;
  std::string field_name;
  std::string codec = "sz14";
  std::string dtype = "f32";
  std::string block_text;
  std::string origin_text;
  std::string shape_text;
  std::vector<FieldSpec> fields;
  double eb_abs = std::numeric_limits<double>::quiet_NaN();
  double eb_rel = std::numeric_limits<double>::quiet_NaN();
  std::size_t threads = 0;
  std::size_t limit = 0;  // 0 = no limit
  std::uint32_t parity_group = 0;  // 0 = parity off
  std::uint64_t shard_size = 0;  // 0 = single-file .sza layout
  EntropyBackend entropy = EntropyBackend::kHuffman;
  bool turbo = false;
  bool repair = false;
  bool salvage = false;
  bool degraded = false;
  bool mmap = false;  // read side: FetchMode::kMmap
};

ArchiveArgs parse_archive(int argc, char** argv) {
  if (argc < 3)
    usage("archive needs a subcommand "
          "(create|ls|stat|extract|cat|fsck|scrub)");
  ArchiveArgs a;
  a.sub = argv[2];
  for (int i = 3; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "-i") {
      a.input = next();
    } else if (flag == "-o") {
      a.output = next();
    } else if (flag == "-f") {
      a.field_name = next();
    } else if (flag == "--field") {
      a.fields.push_back(parse_field_spec(next()));
    } else if (flag == "--codec") {
      a.codec = next();
    } else if (flag == "--dtype") {
      a.dtype = next();
    } else if (flag == "--block") {
      a.block_text = next();
    } else if (flag == "--origin") {
      a.origin_text = next();
    } else if (flag == "--shape") {
      a.shape_text = next();
    } else if (flag == "--abs") {
      a.eb_abs = std::stod(next());
    } else if (flag == "--rel") {
      a.eb_rel = std::stod(next());
    } else if (flag == "-t") {
      a.threads = parse_count(flag, next(), kMaxThreads);
    } else if (flag == "--turbo") {
      a.turbo = true;
    } else if (flag == "--entropy") {
      a.entropy = parse_entropy(next());
    } else if (flag == "--limit") {
      a.limit = parse_count(flag, next());
    } else if (flag == "--repair") {
      a.repair = true;
    } else if (flag == "--salvage") {
      a.salvage = true;
    } else if (flag == "--degraded") {
      a.degraded = true;
    } else if (flag == "--parity") {
      if (a.parity_group == 0) a.parity_group = archive::kDefaultParityGroup;
    } else if (flag == "--parity-group") {
      a.parity_group = parse_count<std::uint32_t>(flag, next());
      if (a.parity_group == 0) usage("--parity-group must be >= 1");
    } else if (flag == "--shard-size") {
      a.shard_size = parse_size_bytes(next());
      if (a.shard_size == 0) usage("--shard-size must be >= 1");
    } else if (flag == "--mmap") {
      a.mmap = true;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.dtype != "f32" && a.dtype != "f64") usage("--dtype must be f32|f64");
  return a;
}

/// Default block shape: 64 per axis, clipped to the field.
Dims default_block(const Dims& dims) {
  std::vector<std::size_t> ext;
  for (std::size_t a = 0; a < dims.rank(); ++a)
    ext.push_back(std::min<std::size_t>(64, dims.extent(a)));
  return Dims(std::span<const std::size_t>(ext));
}

/// Build a Region from --origin/--shape text (no field-rank validation —
/// local commands check against the footer; `sz14 get` lets the server
/// reject a rank mismatch).
std::optional<archive::Region> parse_region_texts(
    const std::string& origin_text, const std::string& shape_text) {
  if (origin_text.empty() && shape_text.empty()) return std::nullopt;
  if (origin_text.empty() || shape_text.empty())
    usage("--origin and --shape must be given together");
  const Dims shape = parse_dims("--shape", shape_text);
  // Origins may legitimately contain 0, which Dims rejects; parse by hand.
  std::vector<std::size_t> origin;
  std::size_t pos = 0;
  while (pos <= origin_text.size()) {
    std::size_t end = origin_text.find('x', pos);
    if (end == std::string::npos) end = origin_text.size();
    origin.push_back(
        parse_count("--origin", origin_text.substr(pos, end - pos)));
    pos = end + 1;
  }
  if (origin.size() != shape.rank())
    usage("--origin/--shape rank mismatch");
  archive::Region r;
  r.rank = shape.rank();
  for (std::size_t ax = 0; ax < r.rank; ++ax) {
    r.origin[ax] = origin[ax];
    r.extent[ax] = shape.extent(ax);
  }
  return r;
}

std::optional<archive::Region> parse_region(const ArchiveArgs& a,
                                            const Dims& dims) {
  const auto r = parse_region_texts(a.origin_text, a.shape_text);
  if (r && r->rank != dims.rank())
    usage("--origin/--shape rank must match the field");
  return r;
}

int cmd_archive_create(const ArchiveArgs& a) {
  if (a.output.empty()) usage("archive create needs -o");
  if (a.fields.empty()) usage("archive create needs at least one --field");
  const archive::CodecOps* ops = archive::codec_by_name(a.codec);
  if (ops == nullptr) {
    std::string known;
    for (const auto& c : archive::codec_table())
      known += std::string(known.empty() ? "" : ", ") + c.name;
    usage(("unknown codec '" + a.codec + "' (known: " + known + ")").c_str());
  }
  if (ops->lossy && std::isnan(a.eb_abs) && std::isnan(a.eb_rel))
    usage("lossy archive codecs need --abs or --rel");

  // --turbo and --entropy ride the writer's per-call ExecPolicy; nothing
  // global moves.
  ExecPolicy policy;
  if (a.turbo) policy.mode = HotPathMode::kTurbo;
  policy.entropy = a.entropy;
  archive::ArchiveWriter writer(a.output, a.threads, policy, a.parity_group,
                                a.shard_size);
  Timer timer;
  const auto do_append = [&](const FieldSpec& spec, const Dims& block,
                             const auto& values) {
    if (values.size() != spec.dims.count())
      usage(("file size does not match dims for field " + spec.name).c_str());
    double eb = a.eb_abs;
    if (!std::isnan(a.eb_rel)) {
      const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
      eb = a.eb_rel * static_cast<double>(*hi - *lo);
    }
    writer.append_field(spec.name, std::span(values.data(), values.size()),
                        spec.dims, block, a.codec, ops->lossy ? eb : 0.0);
  };
  for (const auto& spec : a.fields) {
    const Dims block =
        a.block_text.empty() ? default_block(spec.dims)
                             : parse_dims("--block", a.block_text);
    if (a.dtype == "f32")
      do_append(spec, block, data::read_f32(spec.file));
    else
      do_append(spec, block, read_f64(spec.file));
  }
  writer.finish();
  std::uint64_t payload = 0, raw = 0;
  for (const auto& f : writer.fields()) {
    payload += f.payload_bytes();
    raw += f.dims.count() * (f.dtype == kDtypeF64 ? 8 : 4);
  }
  std::printf("archived %zu field(s), %llu -> %llu bytes (CF %.2f) in "
              "%.3fs\n",
              writer.fields().size(), static_cast<unsigned long long>(raw),
              static_cast<unsigned long long>(payload),
              compression_factor(raw, payload), timer.seconds());
  if (writer.sharded())
    std::printf("manifest %s indexes %zu shard file(s)\n", a.output.c_str(),
                writer.shards().size());
  return 0;
}

/// --salvage: open damaged archives at their last valid checkpoint.
/// --degraded: additionally zero-fill unrecoverable blocks on read instead
/// of erroring.  (Warnings go to stderr so piped stdout stays clean.)
std::unique_ptr<archive::ArchiveReader> open_archive(const ArchiveArgs& a) {
  const archive::OpenMode mode =
      a.degraded ? archive::OpenMode::kDegraded
                 : (a.salvage ? archive::OpenMode::kSalvage
                              : archive::OpenMode::kStrict);
  auto reader = std::make_unique<archive::ArchiveReader>(
      a.input, a.threads, ExecPolicy{}, mode,
      a.mmap ? FetchMode::kMmap : FetchMode::kPread);
  if (a.mmap && reader->fetch_mode() != FetchMode::kMmap)
    std::fprintf(stderr,
                 "warning: %s: mmap unavailable; falling back to pread\n",
                 a.input.c_str());
  const auto& info = reader->salvage_info();
  if (info.fallback)
    std::fprintf(stderr,
                 "warning: %s: strict open failed (%s); using checkpoint at "
                 "byte %llu of %llu\n",
                 a.input.c_str(), info.detail.c_str(),
                 static_cast<unsigned long long>(info.consistent_bytes),
                 static_cast<unsigned long long>(info.file_bytes));
  return reader;
}

int cmd_archive_ls(const ArchiveArgs& a) {
  if (a.input.empty()) usage("archive ls needs -i");
  auto reader_ptr = open_archive(a);
  archive::ArchiveReader& reader = *reader_ptr;
  std::printf("%-20s %-5s %-14s %-12s %-11s %7s %12s %s\n", "field", "dtype",
              "shape", "block", "codec", "blocks", "bytes", "min..max");
  for (const auto& f : reader.fields()) {
    const archive::CodecOps* ops = archive::codec_by_id(f.codec);
    double lo = f.blocks.empty() ? 0.0 : f.blocks.front().min;
    double hi = f.blocks.empty() ? 0.0 : f.blocks.front().max;
    for (const auto& b : f.blocks) {
      lo = std::min(lo, b.min);
      hi = std::max(hi, b.max);
    }
    std::printf("%-20s %-5s %-14s %-12s %-11s %7zu %12llu %.4g..%.4g\n",
                f.name.c_str(), f.dtype == kDtypeF64 ? "f64" : "f32",
                f.dims.to_string().c_str(), f.block_dims.to_string().c_str(),
                ops ? ops->name : "?", f.blocks.size(),
                static_cast<unsigned long long>(f.payload_bytes()), lo, hi);
  }
  if (reader.sharded()) {
    const archive::ShardSet& src = reader.source();
    std::printf("manifest: %zu shard file(s), %llu payload byte(s)\n",
                src.part_count(),
                static_cast<unsigned long long>(src.logical_size()));
    for (std::size_t i = 0; i < src.part_count(); ++i) {
      const auto& p = src.part(i);
      std::printf("  shard %04zu  %12llu bytes  logical offset %llu  %s\n",
                  i, static_cast<unsigned long long>(p.size),
                  static_cast<unsigned long long>(p.logical_start),
                  p.path.c_str());
    }
  }
  return 0;
}

int cmd_archive_extract(const ArchiveArgs& a) {
  if (a.input.empty() || a.field_name.empty() || a.output.empty())
    usage("archive extract needs -i, -f and -o");
  // -t sizes the reader's block-serving pool (0 = all cores).
  auto reader_ptr = open_archive(a);
  archive::ArchiveReader& reader = *reader_ptr;
  const auto& f = reader.field(a.field_name);
  const auto region = parse_region(a, f.dims);
  Timer timer;
  std::size_t values = 0;
  if (f.dtype == kDtypeF32) {
    const auto out = region ? reader.read_region(a.field_name, *region)
                            : reader.read_field(a.field_name);
    values = out.size();
    data::write_f32(a.output, out);
  } else {
    const auto out = region ? reader.read_region64(a.field_name, *region)
                            : reader.read_field64(a.field_name);
    values = out.size();
    data::write_bytes(a.output,
                      {reinterpret_cast<const std::uint8_t*>(out.data()),
                       out.size() * sizeof(double)});
  }
  std::printf("extracted %zu values (%llu of %zu blocks decoded) in %.3fs\n",
              values,
              static_cast<unsigned long long>(reader.blocks_decoded()),
              f.blocks.size(), timer.seconds());
  if (reader.read_repairs() > 0)
    std::fprintf(stderr,
                 "warning: %llu damaged block(s) reconstructed from parity\n",
                 static_cast<unsigned long long>(reader.read_repairs()));
  if (reader.unrecoverable_blocks() > 0)
    std::fprintf(stderr,
                 "warning: DEGRADED output — %llu unrecoverable block(s) "
                 "zero-filled\n",
                 static_cast<unsigned long long>(
                     reader.unrecoverable_blocks()));
  return 0;
}

int cmd_archive_cat(const ArchiveArgs& a) {
  if (a.input.empty() || a.field_name.empty())
    usage("archive cat needs -i and -f");
  auto reader_ptr = open_archive(a);
  archive::ArchiveReader& reader = *reader_ptr;
  const auto& f = reader.field(a.field_name);
  const auto region = parse_region(a, f.dims);
  const auto print = [&](auto&& values) {
    const std::size_t n = a.limit ? std::min(a.limit, values.size())
                                  : values.size();
    for (std::size_t i = 0; i < n; ++i) std::printf("%.9g\n",
                                                    double(values[i]));
    if (n < values.size())
      std::printf("... (%zu of %zu values)\n", n, values.size());
  };
  if (f.dtype == kDtypeF32) {
    print(region ? reader.read_region(a.field_name, *region)
                 : reader.read_field(a.field_name));
  } else {
    print(region ? reader.read_region64(a.field_name, *region)
                 : reader.read_field64(a.field_name));
  }
  return 0;
}

/// `archive stat`: the footer/index summary, rendered through the same
/// stat_format helper the daemon's `stat` op serves — one formatter, no
/// drift between local and remote views.
int cmd_archive_stat(const ArchiveArgs& a) {
  if (a.input.empty()) usage("archive stat needs -i");
  auto reader_ptr = open_archive(a);
  archive::ArchiveReader& reader = *reader_ptr;
  if (!a.field_name.empty()) {
    const auto& f = reader.field(a.field_name);
    std::fputs(
        archive::format_field_stat(archive::field_stat(f, true)).c_str(),
        stdout);
    return 0;
  }
  for (const auto& f : reader.fields())
    std::fputs(
        archive::format_field_stat(archive::field_stat(f, true)).c_str(),
        stdout);
  if (reader.sharded())
    std::printf("layout: sharded manifest (%zu shard file(s))\n",
                reader.shards().size());
  return 0;
}

/// `archive fsck`: scan (and with --repair, truncate + parity-heal) a
/// possibly damaged archive.  Exit codes: 0 = clean or fully repaired,
/// 1 = unrecoverable damage (restore from source), 3 = nothing
/// salvageable (no valid checkpoint at all), 4 = repairable damage found
/// without --repair (rerun with --repair).
int cmd_archive_fsck(const ArchiveArgs& a) {
  if (a.input.empty()) usage("archive fsck needs -i");
  archive::FsckReport report;
  try {
    report = a.repair ? archive::fsck_repair(a.input)
                      : archive::fsck_scan(a.input);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fsck: %s: unsalvageable: %s\n", a.input.c_str(),
                 e.what());
    return 3;
  }
  std::fputs(archive::format_fsck_report(report).c_str(), stdout);
  if (report.clean()) return 0;
  if (a.repair)
    return report.bad_blocks.empty() && report.bad_parity.empty() ? 0 : 1;
  return report.repairable() ? 4 : 1;
}

/// `archive scrub`: verify every payload CRC (pool-parallel), with
/// --repair healing what single parity can reconstruct.  Same exit-code
/// contract as fsck: 0 clean/fully-repaired, 1 unrecoverable, 3
/// unsalvageable, 4 repairable damage found without --repair.
int cmd_archive_scrub(const ArchiveArgs& a) {
  if (a.input.empty()) usage("archive scrub needs -i");
  archive::ScrubReport report;
  try {
    report = archive::scrub_archive(a.input, a.repair, a.threads);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scrub: %s: %s\n", a.input.c_str(), e.what());
    return 3;
  }
  std::fputs(archive::format_scrub_report(report).c_str(), stdout);
  if (report.clean() || report.fully_repaired()) return 0;
  return !a.repair && report.repairable() ? 4 : 1;
}

int cmd_archive(int argc, char** argv) {
  const ArchiveArgs a = parse_archive(argc, argv);
  if (a.sub == "create") return cmd_archive_create(a);
  if (a.sub == "ls") return cmd_archive_ls(a);
  if (a.sub == "stat") return cmd_archive_stat(a);
  if (a.sub == "extract") return cmd_archive_extract(a);
  if (a.sub == "cat") return cmd_archive_cat(a);
  if (a.sub == "fsck") return cmd_archive_fsck(a);
  if (a.sub == "scrub") return cmd_archive_scrub(a);
  usage(("unknown archive subcommand " + a.sub).c_str());
}

// -------------------------------------------------------------------- serve

/// Which signal asked us to go down (0 = still running): SIGTERM drains
/// gracefully, SIGINT stops immediately.
std::atomic<int> g_signal{0};

void handle_stop_signal(int sig) { g_signal.store(sig); }

int cmd_serve(int argc, char** argv) {
  serve::ServerConfig cfg;
  std::string input;
  int drain_grace_ms = 5000;
  // Abandoned connections should not pin the bounded session table
  // forever; the library default (0 = off) is for embedders, a daemon
  // wants reaping on.
  cfg.idle_timeout_ms = 60'000;
  bool listen_given = false;
  bool cache_given = false;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "-i") {
      input = next();
    } else if (flag == "--transport") {
      cfg.transport = next();
    } else if (flag == "--listen") {
      cfg.endpoint = next();
      listen_given = true;
    } else if (flag == "-t") {
      cfg.threads = parse_count(flag, next(), kMaxThreads);
    } else if (flag == "--cache") {
      cfg.cache_bytes = parse_size_bytes(next());
      cache_given = true;
    } else if (flag == "--max-sessions") {
      cfg.max_sessions = parse_count(flag, next());
    } else if (flag == "--no-coalesce") {
      cfg.coalescing = false;
    } else if (flag == "--degraded") {
      cfg.degraded = true;
    } else if (flag == "--mmap") {
      cfg.fetch = FetchMode::kMmap;
    } else if (flag == "--idle-timeout") {
      cfg.idle_timeout_ms = parse_count<int>(flag, next());
    } else if (flag == "--drain-grace") {
      drain_grace_ms = parse_count<int>(flag, next());
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (input.empty()) usage("serve needs -i");
  if (!listen_given && cfg.transport == "unix")
    usage("serve --transport unix needs --listen PATH");
  // A daemon without a cache re-decodes every hot block; default to a
  // modest budget unless the user set one explicitly (--cache 0 disables).
  if (!cache_given) cfg.cache_bytes = 64u << 20;

  serve::Server server(input, cfg);
  try {
    server.start();
  } catch (const std::exception& e) {
    // Distinct exit code for "cannot bind/listen" so supervisors can tell
    // an endpoint conflict from an archive problem.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 3;
  }
  std::printf("serving %s on %s://%s (%zu fields)\n", input.c_str(),
              cfg.transport.c_str(), server.endpoint().c_str(),
              server.reader().fields().size());
  std::fflush(stdout);
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  while (g_signal.load() == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  if (g_signal.load() == SIGTERM) {
    // Graceful: no new sessions, finish in-flight requests, flush every
    // outbox, then close — bounded by the drain grace budget.
    std::printf("SIGTERM: draining (grace %d ms)\n", drain_grace_ms);
    std::fflush(stdout);
    server.drain(drain_grace_ms);
  } else {
    server.stop();
  }
  const serve::ServerStats s = server.stats();
  std::printf("served %llu requests (%llu errors) over %llu sessions; "
              "%llu blocks decoded, %llu coalesced, %llu cache hits\n",
              static_cast<unsigned long long>(s.requests_ok),
              static_cast<unsigned long long>(s.requests_error),
              static_cast<unsigned long long>(s.sessions_accepted),
              static_cast<unsigned long long>(s.blocks_decoded),
              static_cast<unsigned long long>(s.coalesced_reads),
              static_cast<unsigned long long>(s.cache_hits));
  if (s.crc_failures > 0 || s.scrubs_started > 0)
    std::printf("integrity: %llu crc failures, %llu read repairs, "
                "%llu unrecoverable, %llu degraded reads, %llu scrub(s) "
                "(%llu payloads healed)\n",
                static_cast<unsigned long long>(s.crc_failures),
                static_cast<unsigned long long>(s.read_repairs),
                static_cast<unsigned long long>(s.unrecoverable_blocks),
                static_cast<unsigned long long>(s.degraded_reads),
                static_cast<unsigned long long>(s.scrubs_completed),
                static_cast<unsigned long long>(s.scrub_blocks_repaired));
  return 0;
}

// ---------------------------------------------------------------------- get

int run_get(int argc, char** argv) {
  std::string transport = "tcp", endpoint, field, output;
  std::string origin_text, shape_text;
  std::size_t limit = 0;
  bool do_ls = false, do_stat = false, do_stats = false;
  bool do_scrub = false, scrub_repair = false;
  serve::ClientConfig ccfg;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--connect") {
      endpoint = next();
    } else if (flag == "--transport") {
      transport = next();
    } else if (flag == "-f") {
      field = next();
    } else if (flag == "-o") {
      output = next();
    } else if (flag == "--origin") {
      origin_text = next();
    } else if (flag == "--shape") {
      shape_text = next();
    } else if (flag == "--limit") {
      limit = parse_count(flag, next());
    } else if (flag == "--ls") {
      do_ls = true;
    } else if (flag == "--stat") {
      do_stat = true;
    } else if (flag == "--stats") {
      do_stats = true;
    } else if (flag == "--scrub") {
      do_scrub = true;
    } else if (flag == "--repair") {
      scrub_repair = true;
    } else if (flag == "--timeout") {
      ccfg.request_timeout_ms = parse_count<int>(flag, next());
    } else if (flag == "--connect-timeout") {
      ccfg.connect_timeout_ms = parse_count<int>(flag, next());
    } else if (flag == "--retries") {
      ccfg.retries = parse_count<unsigned>(flag, next());
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (endpoint.empty()) usage("get needs --connect ENDPOINT");

  serve::Client client(transport, endpoint, ccfg);
  if (do_ls) {
    std::printf("%-20s %-5s %-14s %-12s %7s %12s %8s %s\n", "field", "dtype",
                "shape", "block", "blocks", "bytes", "CF", "min..max");
    for (const auto& s : client.ls())
      std::printf("%-20s %-5s %-14s %-12s %7llu %12llu %8.2f %.4g..%.4g\n",
                  s.name.c_str(), s.dtype == kDtypeF64 ? "f64" : "f32",
                  s.dims.to_string().c_str(),
                  s.block_dims.to_string().c_str(),
                  static_cast<unsigned long long>(s.block_count),
                  static_cast<unsigned long long>(s.payload_bytes),
                  s.compression_factor(), s.min, s.max);
    return 0;
  }
  if (do_stats) {
    const serve::ServerStats s = client.stats();
    const auto row = [](const char* k, std::uint64_t v) {
      std::printf("  %-22s %llu\n", k, static_cast<unsigned long long>(v));
    };
    std::printf("server stats:\n");
    row("sessions accepted", s.sessions_accepted);
    row("sessions rejected", s.sessions_rejected);
    row("sessions active", s.sessions_active);
    row("requests ok", s.requests_ok);
    row("requests error", s.requests_error);
    row("bytes in", s.bytes_in);
    row("bytes out", s.bytes_out);
    row("blocks decoded", s.blocks_decoded);
    row("coalesced reads", s.coalesced_reads);
    row("cache hits", s.cache_hits);
    row("cache misses", s.cache_misses);
    row("cache evictions", s.cache_evictions);
    row("cache resident bytes", s.cache_resident_bytes);
    row("cache capacity bytes", s.cache_capacity_bytes);
    row("sessions idle reaped", s.sessions_idle_reaped);
    row("crc failures", s.crc_failures);
    row("read repairs", s.read_repairs);
    row("unrecoverable blocks", s.unrecoverable_blocks);
    row("degraded reads", s.degraded_reads);
    row("scrubs started", s.scrubs_started);
    row("scrubs completed", s.scrubs_completed);
    row("scrub blocks repaired", s.scrub_blocks_repaired);
    return 0;
  }
  if (do_stat) {
    if (field.empty()) usage("get --stat needs -f NAME");
    std::fputs(archive::format_field_stat(client.stat(field)).c_str(),
               stdout);
    return 0;
  }
  if (do_scrub) {
    if (client.scrub(scrub_repair)) {
      std::printf("scrub%s started (poll `get --stats` for completion)\n",
                  scrub_repair ? " --repair" : "");
      return 0;
    }
    std::fprintf(stderr, "error: a scrub is already running on the server\n");
    return 5;
  }
  if (field.empty())
    usage("get needs -f NAME (or --ls/--stat/--stats/--scrub)");
  const auto region = parse_region_texts(origin_text, shape_text);
  Timer timer;
  const serve::ReadResponse resp = client.read_raw(field, region);
  const double seconds = timer.seconds();
  if (resp.degraded) {
    std::string holes;
    for (const std::uint64_t h : resp.holes)
      holes += (holes.empty() ? "" : ",") + std::to_string(h);
    std::fprintf(stderr,
                 "warning: DEGRADED read — %zu unrecoverable block(s) "
                 "zero-filled (block index%s %s)\n",
                 resp.holes.size(), resp.holes.size() == 1 ? "" : "es",
                 holes.c_str());
  }
  if (!output.empty()) {
    data::write_bytes(output, resp.values);
    std::printf("fetched %s %s (%zu bytes) in %.3fs (%.1f MB/s)\n",
                resp.shape.to_string().c_str(),
                resp.dtype == kDtypeF64 ? "f64" : "f32", resp.values.size(),
                seconds, throughput_mbs(resp.values.size(), seconds));
    return 0;
  }
  const auto print = [&](auto* p, std::size_t count) {
    const std::size_t n = limit ? std::min(limit, count) : count;
    for (std::size_t i = 0; i < n; ++i)
      std::printf("%.9g\n", static_cast<double>(p[i]));
    if (n < count) std::printf("... (%zu of %zu values)\n", n, count);
  };
  if (resp.dtype == kDtypeF64)
    print(reinterpret_cast<const double*>(resp.values.data()),
          resp.values.size() / sizeof(double));
  else
    print(reinterpret_cast<const float*>(resp.values.data()),
          resp.values.size() / sizeof(float));
  return 0;
}

/// run_get + the documented exit-code mapping: each failure class gets ONE
/// stderr line and a distinct code, so scripts branch on $? instead of
/// parsing error text.
int cmd_get(int argc, char** argv) {
  try {
    return run_get(argc, argv);
  } catch (const serve::RemoteError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return e.status() == serve::kStatusNotFound ? 6 : 5;
  } catch (const serve::ProtocolError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 5;
  } catch (const serve::TimeoutError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 4;
  } catch (const serve::ConnectError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 3;
  }
  // Anything else falls through to main()'s generic handler (exit 1).
}

// --------------------------------------------------------------- failpoints

/// `sz14 failpoints ls`: the registered site names, one per line — the
/// authoritative answer to "what can SZ14_FAILPOINTS actually arm?"
/// (arming anything else warns on stderr and never fires).
int cmd_failpoints(int argc, char** argv) {
  if (argc < 3 || std::string(argv[2]) != "ls")
    usage("failpoints needs a subcommand (ls)");
  for (const std::string_view site : fail::known_sites())
    std::printf("%.*s\n", static_cast<int>(site.size()), site.data());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 2 && std::string(argv[1]) == "archive")
      return cmd_archive(argc, argv);
    if (argc >= 2 && std::string(argv[1]) == "serve")
      return cmd_serve(argc, argv);
    if (argc >= 2 && std::string(argv[1]) == "get")
      return cmd_get(argc, argv);
    if (argc >= 2 && std::string(argv[1]) == "failpoints")
      return cmd_failpoints(argc, argv);
    const Args a = parse(argc, argv);
    if (a.command == "compress") return cmd_compress(a);
    if (a.command == "decompress") return cmd_decompress(a);
    if (a.command == "info") return cmd_info(a);
    if (a.command == "analyze") return cmd_analyze(a);
    usage(("unknown command " + a.command).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
