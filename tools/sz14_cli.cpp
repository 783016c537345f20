// sz14 — command-line front end for the SZ-1.4 reproduction, mirroring the
// workflow of the reference `sz` executable: compress/decompress raw
// binary arrays, inspect streams, and run the paper's tuning analyses.
// It also builds, reads, checks and repairs block-sharded multi-field
// archives (SZA containers, src/archive/), serves them from a long-lived
// daemon (src/serve/), reads them remotely, and lists the failpoint sites
// that fault-injection drills can arm.
//
// Each command is one row of kCommands: its synopsis (usage() prints them
// all), the flags its handler reads, the flags it requires, and the handler.
// Each flag is one row of kFlags and is parsed the same way for every
// command; a flag the command does not read is a usage error.
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
#include <iterator>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "archive/archive.hpp"
#include "common/exec_policy.hpp"
#include "common/failpoint.hpp"
#include "common/metrics.hpp"
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

struct FieldSpec {
  std::string name;
  std::string file;
  Dims dims;
};

/// Everything the flags set.  A handler reads only the fields of the flags
/// its command accepts.
struct Args {
  std::vector<std::string> given;  // every flag on the command line
  std::string input, output, field, connect;
  std::string dims_text, block_text, origin_text, shape_text;
  std::string dtype = "f32";
  std::string codec = "sz14";
  std::string transport = "tcp";
  std::vector<FieldSpec> fields;
  Options opts;  // --abs, --rel, -m, -n, --decorrelate, --entropy
  double pwrel = std::numeric_limits<double>::quiet_NaN();
  std::optional<std::size_t> threads;  // -t; each command has its default
  std::size_t limit = 0;               // 0 = no limit
  std::uint32_t parity_group = 0;      // 0 = parity off
  std::uint64_t shard_size = 0;        // 0 = single-file .sza layout
  serve::ServerConfig server;  // --listen, --cache, --max-sessions, ...
  int drain_grace_ms = 5000;
  serve::ClientConfig client;
  bool repair = false, salvage = false, degraded = false;
  bool mmap = false, ls = false, stat = false, stats = false, scrub = false;

  [[nodiscard]] bool has(std::string_view flag) const {
    return std::find(given.begin(), given.end(), flag) != given.end();
  }
};

/// Print `why`, the synopsis of every command and the notes, then exit 2.
[[noreturn]] void usage(const std::string& why);

/// Map an --entropy value onto the per-call ExecPolicy backend selection.
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
    usage(flag + " expects an integer in [0, " + std::to_string(max) +
          "], got '" + text + "'");
  return static_cast<T>(v);
}

/// The value of float flag `flag` (--abs, --rel, --pwrel): one finite,
/// non-negative decimal number spanning the whole text; anything else is a
/// usage error.  0 stays valid: --abs 0 selects the lossless fallback.
double parse_real(const std::string& flag, const std::string& text) {
  double v = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || !std::isfinite(v) ||
      std::signbit(v))
    usage(flag + " expects a finite number >= 0, got '" + text + "'");
  return v;
}

/// The 'x'-separated integers of `flag` (-d, --block, --origin, --shape,
/// --field dims), slowest first.  An empty part is a usage error.
std::vector<std::size_t> parse_extents(const std::string& flag,
                                       const std::string& text) {
  std::vector<std::size_t> ext;
  for (std::size_t pos = 0; pos <= text.size();) {
    const std::size_t end = std::min(text.find('x', pos), text.size());
    ext.push_back(parse_count(flag, text.substr(pos, end - pos)));
    pos = end + 1;
  }
  return ext;
}

Dims parse_dims(const std::string& flag, const std::string& text) {
  const auto ext = parse_extents(flag, text);
  return Dims(std::span<const std::size_t>(ext));
}

/// "--cache 256M" style byte count: bare bytes or a K/M/G suffix
/// (binary multiples; a trailing B/iB is accepted, so 64M == 64MB ==
/// 64MiB).
std::size_t parse_size_bytes(const std::string& text) {
  unsigned long long v = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc()) usage("bad size: " + text);
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
  else if (!suffix.empty()) usage("bad size suffix: " + text);
  if (shift && v > (std::numeric_limits<unsigned long long>::max() >> shift))
    usage("size too large: " + text);
  return static_cast<std::size_t>(v << shift);
}

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

/// Build a Region from --origin/--shape (no field-rank validation — local
/// commands check against the footer; `sz14 get` lets the server reject a
/// rank mismatch).
std::optional<archive::Region> parse_region_texts(const Args& a) {
  if (a.origin_text.empty() && a.shape_text.empty()) return std::nullopt;
  if (a.origin_text.empty() || a.shape_text.empty())
    usage("--origin and --shape must be given together");
  const Dims shape = parse_dims("--shape", a.shape_text);
  // Origins may legitimately contain 0, which Dims rejects.
  const auto origin = parse_extents("--origin", a.origin_text);
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

std::optional<archive::Region> parse_region(const Args& a, const Dims& dims) {
  const auto r = parse_region_texts(a);
  if (r && r->rank != dims.rank())
    usage("--origin/--shape rank must match the field");
  return r;
}

using Text = const std::string&;

/// One flag: its name, whether a value follows it, and how it lands in
/// Args.  `set` gets the flag's name for error messages.
struct Flag {
  const char* name;
  bool takes_value;
  void (*set)(Args&, Text flag, Text value);
};

const Flag kFlags[] = {
    {"-i", true, [](Args& a, Text, Text v) { a.input = v; }},
    {"-o", true, [](Args& a, Text, Text v) { a.output = v; }},
    {"-f", true, [](Args& a, Text, Text v) { a.field = v; }},
    {"-d", true, [](Args& a, Text, Text v) { a.dims_text = v; }},
    {"--dtype", true,
     [](Args& a, Text, Text v) {
       if (v != "f32" && v != "f64") usage("--dtype must be f32|f64");
       a.dtype = v;
     }},
    {"--abs", true,
     [](Args& a, Text f, Text v) { a.opts.eb_abs = parse_real(f, v); }},
    {"--rel", true,
     [](Args& a, Text f, Text v) { a.opts.eb_rel = parse_real(f, v); }},
    {"--pwrel", true,
     [](Args& a, Text f, Text v) { a.pwrel = parse_real(f, v); }},
    {"-m", true,
     [](Args& a, Text f, Text v) {
       a.opts.interval_bits = parse_count<unsigned>(f, v);
     }},
    {"-n", true,
     [](Args& a, Text f, Text v) {
       a.opts.layers = parse_count<unsigned>(f, v);
     }},
    {"--decorrelate", false,
     [](Args& a, Text, Text) { a.opts.decorrelate = true; }},
    {"--entropy", true,
     [](Args& a, Text, Text v) { a.opts.exec.entropy = parse_entropy(v); }},
    {"-t", true,
     [](Args& a, Text f, Text v) {
       a.threads = parse_count(f, v, kMaxThreads);
     }},
    {"--field", true,
     [](Args& a, Text, Text v) { a.fields.push_back(parse_field_spec(v)); }},
    {"--codec", true, [](Args& a, Text, Text v) { a.codec = v; }},
    {"--block", true, [](Args& a, Text, Text v) { a.block_text = v; }},
    {"--parity", false,
     [](Args& a, Text, Text) {
       if (a.parity_group == 0) a.parity_group = archive::kDefaultParityGroup;
     }},
    {"--parity-group", true,
     [](Args& a, Text f, Text v) {
       a.parity_group = parse_count<std::uint32_t>(f, v);
       if (a.parity_group == 0) usage("--parity-group must be >= 1");
     }},
    {"--shard-size", true,
     [](Args& a, Text, Text v) {
       a.shard_size = parse_size_bytes(v);
       if (a.shard_size == 0) usage("--shard-size must be >= 1");
     }},
    {"--origin", true, [](Args& a, Text, Text v) { a.origin_text = v; }},
    {"--shape", true, [](Args& a, Text, Text v) { a.shape_text = v; }},
    {"--limit", true,
     [](Args& a, Text f, Text v) { a.limit = parse_count(f, v); }},
    {"--mmap", false, [](Args& a, Text, Text) { a.mmap = true; }},
    {"--salvage", false, [](Args& a, Text, Text) { a.salvage = true; }},
    {"--degraded", false, [](Args& a, Text, Text) { a.degraded = true; }},
    {"--repair", false, [](Args& a, Text, Text) { a.repair = true; }},
    {"--transport", true, [](Args& a, Text, Text v) { a.transport = v; }},
    {"--listen", true, [](Args& a, Text, Text v) { a.server.endpoint = v; }},
    {"--cache", true,
     [](Args& a, Text, Text v) { a.server.cache_bytes = parse_size_bytes(v); }},
    {"--max-sessions", true,
     [](Args& a, Text f, Text v) {
       a.server.max_sessions = parse_count(f, v);
     }},
    {"--no-coalesce", false,
     [](Args& a, Text, Text) { a.server.coalescing = false; }},
    {"--idle-timeout", true,
     [](Args& a, Text f, Text v) {
       a.server.idle_timeout_ms = parse_count<int>(f, v);
     }},
    {"--drain-grace", true,
     [](Args& a, Text f, Text v) {
       a.drain_grace_ms = parse_count<int>(f, v);
     }},
    {"--connect", true, [](Args& a, Text, Text v) { a.connect = v; }},
    {"--ls", false, [](Args& a, Text, Text) { a.ls = true; }},
    {"--stat", false, [](Args& a, Text, Text) { a.stat = true; }},
    {"--stats", false, [](Args& a, Text, Text) { a.stats = true; }},
    {"--scrub", false, [](Args& a, Text, Text) { a.scrub = true; }},
    {"--timeout", true,
     [](Args& a, Text f, Text v) {
       a.client.request_timeout_ms = parse_count<int>(f, v);
     }},
    {"--connect-timeout", true,
     [](Args& a, Text f, Text v) {
       a.client.connect_timeout_ms = parse_count<int>(f, v);
     }},
    {"--retries", true,
     [](Args& a, Text f, Text v) {
       a.client.retries = parse_count<unsigned>(f, v);
     }},
};

std::vector<double> read_f64(const std::string& path) {
  const auto bytes = data::read_bytes(path);
  if (bytes.size() % sizeof(double) != 0)
    throw std::runtime_error("f64 file size not divisible by 8: " + path);
  std::vector<double> values(bytes.size() / sizeof(double));
  std::memcpy(values.data(), bytes.data(), bytes.size());
  return values;
}

/// Write `values` as a flat little-endian f32 or f64 file.
template <class T>
void write_values(const std::string& path, const std::vector<T>& values) {
  data::write_bytes(path, {reinterpret_cast<const std::uint8_t*>(values.data()),
                           values.size() * sizeof(T)});
}

/// Print one value per line, at most `limit` of them (0 = all).
template <class T>
void print_values(std::span<const T> values, std::size_t limit) {
  const std::size_t n = limit ? std::min(limit, values.size()) : values.size();
  for (std::size_t i = 0; i < n; ++i)
    std::printf("%.9g\n", static_cast<double>(values[i]));
  if (n < values.size())
    std::printf("... (%zu of %zu values)\n", n, values.size());
}

int cmd_compress(const Args& a) {
  const Dims dims = parse_dims("-d", a.dims_text);
  Options opts = a.opts;
  CompressStats stats;
  Timer timer;
  std::vector<std::uint8_t> stream;
  std::size_t raw_bytes = 0;
  const std::size_t threads = a.threads.value_or(1);
  const bool threaded = threads != 1;  // -t 0 = all cores (shared pool)
  if (!std::isnan(a.pwrel)) {
    if (a.dtype != "f32") usage("--pwrel supports --dtype f32 only");
    if (threaded)
      std::fprintf(stderr,
                   "warning: -t is ignored with --pwrel (sequential path)\n");
    const auto values = data::read_f32(a.input);
    raw_bytes = values.size() * sizeof(float);
    stream = compress_pointwise_rel(values, dims, a.pwrel, opts, &stats);
  } else if (a.dtype == "f32" && threaded) {
    // Whole-field threaded path: slab container, one shared entropy table.
    // The pool travels on the policy: -t 0 borrows the process-wide pool
    // (one worker per core); an explicit count gets a private pool.
    const auto values = data::read_f32(a.input);
    raw_bytes = values.size() * sizeof(float);
    if (threads == 0) opts.exec.pool = &shared_pool();
    opts.exec.threads = threads;
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
  const auto stream = data::read_bytes(a.input);
  Timer timer;
  // Parallel slab containers carry their own magic ("SZP3", or "SZP2").
  if (is_parallel_stream(stream)) {
    // -t 0 borrows the process-wide pool, a count gets a private pool.
    const std::size_t threads = a.threads.value_or(1);
    ThreadPool* const shared = threads == 0 ? &shared_pool() : nullptr;
    const auto out =
        parallel_decompress(stream, {.pool = shared, .threads = threads});
    write_values(a.output, out.data);
    std::printf("decompressed %s f32 (parallel container, %zu threads) "
                "in %.3fs\n",
                out.dims.to_string().c_str(),
                shared ? shared->thread_count() : threads, timer.seconds());
    return 0;
  }
  // Pointwise containers carry their own magic ("SZPR").
  if (stream.size() >= 4 && stream[0] == 0x52 && stream[1] == 0x50 &&
      stream[2] == 0x5A && stream[3] == 0x53) {
    const auto out = decompress_pointwise_rel(stream);
    write_values(a.output, out.data);
    std::printf("decompressed %s f32 (pointwise rel %.3g) in %.3fs\n",
                out.dims.to_string().c_str(), out.pwrel, timer.seconds());
    return 0;
  }
  const auto finish = [&](const auto& out, const char* dtype) {
    write_values(a.output, out.data);
    std::printf("decompressed %s %s in %.3fs\n", out.dims.to_string().c_str(),
                dtype, timer.seconds());
  };
  if (stream_dtype(stream) == StreamDtype::kF32)
    finish(decompress(stream), "f32");
  else
    finish(decompress64(stream), "f64");
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
  std::printf("  entropy      : %s\n",
              h.entropy == EntropyBackend::kRans ? "rans" : "huffman");
  std::printf("  stream bytes : %zu (%.2f bits/value)\n", stream.size(),
              bit_rate(stream.size(), h.dims.count()));
  return 0;
}

int cmd_analyze(const Args& a) {
  if (a.dtype != "f32") usage("analyze currently supports --dtype f32 only");
  const Dims dims = parse_dims("-d", a.dims_text);
  const auto values = data::read_f32(a.input);
  if (values.size() != dims.count()) usage("file size does not match -d");
  // The range for --rel is taken over the finite values, as in compress.
  const double eb =
      resolve_error_bound_for(std::span<const float>(values), a.opts);
  if (std::isnan(eb)) usage("analyze needs --abs or --rel");

  std::printf("resolved absolute bound %.6g\n", eb);
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

/// Default block shape: 64 per axis, clipped to the field.
Dims default_block(const Dims& dims) {
  std::vector<std::size_t> ext;
  for (std::size_t a = 0; a < dims.rank(); ++a)
    ext.push_back(std::min<std::size_t>(64, dims.extent(a)));
  return Dims(std::span<const std::size_t>(ext));
}

int cmd_archive_create(const Args& a) {
  const archive::CodecOps* ops = archive::codec_by_name(a.codec);
  if (ops == nullptr) {
    std::string known;
    for (const auto& c : archive::codec_table())
      known += std::string(known.empty() ? "" : ", ") + c.name;
    usage("unknown codec '" + a.codec + "' (known: " + known + ")");
  }
  if (ops->lossy && std::isnan(a.opts.eb_abs) && std::isnan(a.opts.eb_rel))
    usage("lossy archive codecs need --abs or --rel");

  // --entropy rides the writer's per-call ExecPolicy; nothing global
  // moves.
  archive::WriterOptions wopts{.exec = a.opts.exec,
                               .parity_group = a.parity_group,
                               .shard_size = a.shard_size};
  wopts.exec.threads = a.threads.value_or(0);
  archive::ArchiveWriter writer(a.output, wopts);
  Timer timer;
  const auto do_append = [&](const FieldSpec& spec, const Dims& block,
                             const auto& values) {
    if (values.size() != spec.dims.count())
      usage("file size does not match dims for field " + spec.name);
    const std::span data(values.data(), values.size());
    // The codec's own resolution: the tighter of --abs and --rel, with the
    // range taken over the finite values.
    const double eb = ops->lossy ? resolve_error_bound_for(data, a.opts) : 0.0;
    writer.append_field(spec.name, data, spec.dims, block, a.codec, eb);
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
std::unique_ptr<archive::ArchiveReader> open_archive(const Args& a) {
  auto reader = std::make_unique<archive::ArchiveReader>(
      a.input,
      archive::ReaderOptions{
          .threads = a.threads.value_or(0),
          .open = a.degraded ? archive::OpenMode::kDegraded
                             : (a.salvage ? archive::OpenMode::kSalvage
                                          : archive::OpenMode::kStrict),
          .fetch = a.mmap ? FetchMode::kMmap : FetchMode::kPread});
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

int cmd_archive_ls(const Args& a) {
  auto reader_ptr = open_archive(a);
  archive::ArchiveReader& reader = *reader_ptr;
  std::printf("%-20s %-5s %-14s %-12s %-11s %7s %12s %s\n", "field", "dtype",
              "shape", "block", "codec", "blocks", "bytes", "min..max");
  for (const auto& f : reader.fields()) {
    const archive::FieldStat s = archive::field_stat(f, false);
    const archive::CodecOps* ops = archive::codec_by_id(s.codec);
    std::printf("%-20s %-5s %-14s %-12s %-11s %7llu %12llu %.4g..%.4g\n",
                s.name.c_str(), s.dtype == kDtypeF64 ? "f64" : "f32",
                s.dims.to_string().c_str(), s.block_dims.to_string().c_str(),
                ops ? ops->name : "?",
                static_cast<unsigned long long>(s.block_count),
                static_cast<unsigned long long>(s.payload_bytes), s.min,
                s.max);
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

int cmd_archive_extract(const Args& a) {
  // -t sizes the reader's block-serving pool (0 = all cores).
  auto reader_ptr = open_archive(a);
  archive::ArchiveReader& reader = *reader_ptr;
  const auto& f = reader.field(a.field);
  const auto region = parse_region(a, f.dims);
  Timer timer;
  const auto extract = [&](const auto& out) {
    write_values(a.output, out);
    return out.size();
  };
  const std::size_t values =
      f.dtype == kDtypeF32 ? extract(reader.read<float>(a.field, region))
                           : extract(reader.read<double>(a.field, region));
  std::printf("extracted %zu values (%llu of %zu blocks decoded) in %.3fs\n",
              values,
              static_cast<unsigned long long>(reader.blocks_decoded()),
              f.blocks.size(), timer.seconds());
  const Metrics m = reader.metrics();
  if (const auto n = metric(m, "read_repairs"); n > 0)
    std::fprintf(stderr,
                 "warning: %llu damaged block(s) reconstructed from parity\n",
                 static_cast<unsigned long long>(n));
  if (const auto n = metric(m, "unrecoverable_blocks"); n > 0)
    std::fprintf(stderr,
                 "warning: DEGRADED output — %llu unrecoverable block(s) "
                 "zero-filled\n",
                 static_cast<unsigned long long>(n));
  return 0;
}

int cmd_archive_cat(const Args& a) {
  auto reader_ptr = open_archive(a);
  archive::ArchiveReader& reader = *reader_ptr;
  const auto& f = reader.field(a.field);
  const auto region = parse_region(a, f.dims);
  if (f.dtype == kDtypeF32)
    print_values<float>(reader.read<float>(a.field, region), a.limit);
  else
    print_values<double>(reader.read<double>(a.field, region), a.limit);
  return 0;
}

/// `archive stat`: the footer/index summary, rendered through the same
/// stat_format helper the daemon's `stat` op serves — one formatter, no
/// drift between local and remote views.
int cmd_archive_stat(const Args& a) {
  auto reader_ptr = open_archive(a);
  archive::ArchiveReader& reader = *reader_ptr;
  const std::span<const archive::FieldEntry> selected =
      a.field.empty() ? std::span(reader.fields())
                      : std::span(&reader.field(a.field), 1);
  for (const auto& f : selected)
    std::fputs(
        archive::format_field_stat(archive::field_stat(f, true)).c_str(),
        stdout);
  if (a.field.empty() && reader.sharded())
    std::printf("layout: sharded manifest (%zu shard file(s))\n",
                reader.shards().size());
  return 0;
}

/// `archive fsck`: scan (and with --repair, truncate + parity-heal) a
/// possibly damaged archive.  Exit codes: 0 = clean or fully repaired,
/// 1 = unrecoverable damage (restore from source), 3 = nothing
/// salvageable (no valid checkpoint at all), 4 = repairable damage found
/// without --repair (rerun with --repair).
int cmd_archive_fsck(const Args& a) {
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
  return report.repairable() ? 4 : 1;
}

/// `archive scrub`: verify every payload CRC (pool-parallel), with
/// --repair healing what single parity can reconstruct.  Same exit-code
/// contract as fsck: 0 clean/fully-repaired, 1 unrecoverable, 3
/// unsalvageable, 4 repairable damage found without --repair, or a torn
/// tail (opens only from an older checkpoint; fsck --repair cuts it).
int cmd_archive_scrub(const Args& a) {
  archive::ScrubReport report;
  try {
    report =
        archive::scrub_archive(a.input, a.repair, a.threads.value_or(0));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scrub: %s: %s\n", a.input.c_str(), e.what());
    return 3;
  }
  std::fputs(archive::format_scrub_report(report).c_str(), stdout);
  if (report.clean() || report.fully_repaired()) return 0;
  return report.repairable() ? 4 : 1;
}

// -------------------------------------------------------------------- serve

/// One row per counter, shared by `get --stats` and the `serve` exit
/// summary.
void print_stats(const Metrics& stats) {
  std::printf("server stats:\n");
  for (const auto& [name, value] : stats)
    std::printf("  %-22s %llu\n", name.c_str(),
                static_cast<unsigned long long>(value));
}

/// Which signal asked us to go down (0 = still running): SIGTERM drains
/// gracefully, SIGINT stops immediately.
std::atomic<int> g_signal{0};

void handle_stop_signal(int sig) { g_signal.store(sig); }

int cmd_serve(const Args& a) {
  serve::ServerConfig cfg = a.server;
  cfg.transport = a.transport;
  if (a.threads) cfg.threads = *a.threads;
  cfg.degraded = a.degraded;
  if (a.mmap) cfg.fetch = FetchMode::kMmap;
  // The library defaults (no cache, no idle reaping) are for embedders.  A
  // daemon without a cache re-decodes every hot block (--cache 0 still
  // disables it), and abandoned connections should not pin the bounded
  // session table forever.
  if (!a.has("--cache")) cfg.cache_bytes = 64u << 20;
  if (!a.has("--idle-timeout")) cfg.idle_timeout_ms = 60'000;
  if (!a.has("--listen") && cfg.transport == "unix")
    usage("serve --transport unix needs --listen PATH");

  serve::Server server(a.input, cfg);
  try {
    server.start();
  } catch (const std::exception& e) {
    // Distinct exit code for "cannot bind/listen" so supervisors can tell
    // an endpoint conflict from an archive problem.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 3;
  }
  std::printf("serving %s on %s://%s (%zu fields)\n", a.input.c_str(),
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
    std::printf("SIGTERM: draining (grace %d ms)\n", a.drain_grace_ms);
    std::fflush(stdout);
    server.drain(a.drain_grace_ms);
  } else {
    server.stop();
  }
  print_stats(server.stats());
  return 0;
}

// ---------------------------------------------------------------------- get

int run_get(const Args& a) {
  serve::Client client(a.transport, a.connect, a.client);
  if (a.ls) {
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
  if (a.stats) {
    print_stats(client.stats());
    return 0;
  }
  if (a.stat) {
    if (a.field.empty()) usage("get --stat needs -f NAME");
    std::fputs(archive::format_field_stat(client.stat(a.field)).c_str(),
               stdout);
    return 0;
  }
  if (a.scrub) {
    if (client.scrub(a.repair)) {
      std::printf("scrub%s started (poll `get --stats` for completion)\n",
                  a.repair ? " --repair" : "");
      return 0;
    }
    std::fprintf(stderr, "error: a scrub is already running on the server\n");
    return 5;
  }
  if (a.field.empty())
    usage("get needs -f NAME (or --ls/--stat/--stats/--scrub)");
  const auto region = parse_region_texts(a);
  Timer timer;
  const serve::ReadResponse resp = client.read_raw(a.field, region);
  const double seconds = timer.seconds();
  if (resp.degraded) {
    std::string holes;
    for (const std::uint64_t h : resp.holes) {
      if (!holes.empty()) holes += ',';
      holes += std::to_string(h);
    }
    std::fprintf(stderr,
                 "warning: DEGRADED read — %zu unrecoverable block(s) "
                 "zero-filled (block index%s %s)\n",
                 resp.holes.size(), resp.holes.size() == 1 ? "" : "es",
                 holes.c_str());
  }
  if (!a.output.empty()) {
    data::write_bytes(a.output, resp.values);
    std::printf("fetched %s %s (%zu bytes) in %.3fs (%.1f MB/s)\n",
                resp.shape.to_string().c_str(),
                resp.dtype == kDtypeF64 ? "f64" : "f32", resp.values.size(),
                seconds, throughput_mbs(resp.values.size(), seconds));
    return 0;
  }
  const auto print = [&](auto zero) {
    std::vector<decltype(zero)> values(resp.values.size() / sizeof(zero));
    std::memcpy(values.data(), resp.values.data(),
                values.size() * sizeof(zero));
    print_values<decltype(zero)>(values, a.limit);
  };
  if (resp.dtype == kDtypeF64)
    print(0.0);
  else
    print(0.0f);
  return 0;
}

/// run_get + the documented exit-code mapping: each failure class gets ONE
/// stderr line and a distinct code, so scripts branch on $? instead of
/// parsing error text.
int cmd_get(const Args& a) {
  try {
    return run_get(a);
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
int cmd_failpoints_ls(const Args&) {
  for (const std::string_view site : fail::known_sites())
    std::printf("%.*s\n", static_cast<int>(site.size()), site.data());
  return 0;
}

// ------------------------------------------------------------ command table

/// One command: its name (one word, or two for the archive and failpoints
/// groups), the synopsis usage() prints after it, the space-separated flags
/// its handler reads and the subset it cannot run without, and the handler.
struct Command {
  const char* name;
  const char* synopsis;
  const char* flags;
  const char* required;
  int (*run)(const Args&);
};

const Command kCommands[] = {
    {"compress",
     "-i IN -o OUT -d D1xD2[xD3[xD4]] (--abs EB | --rel EB | --pwrel P) "
     "[--dtype f32|f64] [-m BITS] [-n LAYERS] [--decorrelate] "
     "[--entropy huffman|rans] [-t THREADS]   (-t: f32 slab container; "
     "0 = all cores)",
     "-i -o -d --abs --rel --pwrel --dtype -m -n --decorrelate --entropy -t",
     "-i -o -d", cmd_compress},
    {"decompress", "-i IN -o OUT [-t THREADS]", "-i -o -t", "-i -o",
     cmd_decompress},
    {"info", "-i IN", "-i", "-i", cmd_info},
    {"analyze", "-i IN -d DIMS (--abs EB | --rel EB) [--dtype f32|f64]",
     "-i -d --abs --rel --dtype", "-i -d", cmd_analyze},
    {"archive create",
     "-o OUT --field NAME=FILE:DIMS [--field ...] [--codec C] "
     "(--abs EB | --rel R) [--dtype f32|f64] [--block DIMS] [-t THREADS] "
     "[--entropy huffman|rans] [--parity [--parity-group N]] "
     "[--shard-size BYTES[K|M|G]]",
     "-o --field --codec --abs --rel --dtype --block -t --entropy "
     "--parity --parity-group --shard-size",
     "-o --field", cmd_archive_create},
    // -t on ls and stat sizes the reader's pool, as for extract and cat.
    {"archive ls", "-i IN [--mmap]", "-i -t --mmap --salvage --degraded",
     "-i", cmd_archive_ls},
    {"archive stat", "-i IN [-f NAME] [--mmap]",
     "-i -f -t --mmap --salvage --degraded", "-i", cmd_archive_stat},
    {"archive extract",
     "-i IN -f NAME -o OUT [--origin DIMS --shape DIMS] [-t THREADS] "
     "[--mmap]",
     "-i -f -o --origin --shape -t --mmap --salvage --degraded",
     "-i -f -o", cmd_archive_extract},
    {"archive cat",
     "-i IN -f NAME [--origin DIMS --shape DIMS] [--limit N] [-t THREADS] "
     "[--mmap]",
     "-i -f --origin --shape --limit -t --mmap --salvage --degraded",
     "-i -f", cmd_archive_cat},
    {"archive fsck", "-i IN [--repair]", "-i --repair", "-i",
     cmd_archive_fsck},
    {"archive scrub", "-i IN [--repair] [-t THREADS]", "-i --repair -t",
     "-i", cmd_archive_scrub},
    {"serve",
     "-i IN [--transport tcp|unix] [--listen ENDPOINT] [-t LOOPS] "
     "[--cache BYTES[K|M|G]] [--max-sessions N] [--no-coalesce] "
     "[--degraded] [--mmap] [--idle-timeout MS] [--drain-grace MS]",
     "-i --transport --listen -t --cache --max-sessions --no-coalesce "
     "--degraded --mmap --idle-timeout --drain-grace",
     "-i", cmd_serve},
    {"get",
     "--connect ENDPOINT [--transport tcp|unix] (--ls | --stats | "
     "--stat -f NAME | --scrub [--repair] | -f NAME [-o OUT] "
     "[--origin DIMS --shape DIMS] [--limit N]) [--timeout MS] "
     "[--connect-timeout MS] [--retries N]",
     "--connect --transport --ls --stats --stat --scrub --repair -f -o "
     "--origin --shape --limit --timeout --connect-timeout --retries",
     "--connect", cmd_get},
    {"failpoints ls", "", "", "", cmd_failpoints_ls},
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "error: %s\n\nusage:\n", why.c_str());
  for (const Command& c : kCommands)
    std::fprintf(stderr, "  sz14 %-15s %s\n", c.name, c.synopsis);
  std::fprintf(stderr,
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
               "  serve -t N runs N event loops and N decode workers "
               "(0, the default,\n"
               "  = one each per core); a read whose blocks are all cached "
               "is answered\n"
               "  on its connection's loop, others decode on the workers.\n"
               "  serve drains gracefully on SIGTERM (finish in-flight "
               "requests, flush,\n"
               "  close; bounded by --drain-grace) and stops immediately on "
               "SIGINT.\n"
               "  Every command rejects a flag it does not use.\n"
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
               "--repair;\n"
               "     scrub: or the archive opens only from an older "
               "checkpoint\n"
               "     (torn tail; `archive fsck --repair` truncates it)\n"
               "  5  protocol error (malformed/unexpected wire data, "
               "rejected request;\n"
               "     get --scrub: a scrub is already running)\n"
               "  6  field not found\n");
  std::exit(2);
}

/// Whether `word` is one of the space-separated words of `list`.
bool lists(std::string_view list, std::string_view word) {
  for (std::size_t pos = 0; pos < list.size();) {
    const std::size_t end = std::min(list.find(' ', pos), list.size());
    if (list.substr(pos, end - pos) == word) return true;
    pos = end + 1;
  }
  return false;
}

/// The row argv names; `first` becomes the index of its first flag.
const Command& find_command(int argc, char** argv, int& first) {
  if (argc < 2) usage("missing command");
  const std::string one = argv[1];
  const std::string two = argc > 2 ? one + " " + argv[2] : one;
  for (const Command& c : kCommands) {
    if (one == c.name) {
      first = 2;
      return c;
    }
    if (two == c.name) {
      first = 3;
      return c;
    }
  }
  usage("unknown command " + one);
}

/// The one flag loop: every flag through its kFlags row, once `cmd` is
/// known to read it.
Args parse(const Command& cmd, int first, int argc, char** argv) {
  Args a;
  for (int i = first; i < argc; ++i) {
    const std::string flag = argv[i];
    const Flag* f =
        std::find_if(std::begin(kFlags), std::end(kFlags),
                     [&](const Flag& row) { return flag == row.name; });
    if (f == std::end(kFlags)) usage("unknown flag " + flag);
    if (!lists(cmd.flags, flag))
      usage(std::string(cmd.name) + " does not take " + flag);
    std::string value;
    if (f->takes_value) {
      if (i + 1 >= argc) usage("missing value for " + flag);
      value = argv[++i];
    }
    f->set(a, flag, value);
    a.given.push_back(flag);
  }
  for (const Flag& f : kFlags)
    if (lists(cmd.required, f.name) && !a.has(f.name))
      usage(std::string(cmd.name) + " needs " + f.name);
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    int first = 0;
    const Command& cmd = find_command(argc, argv, first);
    return cmd.run(parse(cmd, first, argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
