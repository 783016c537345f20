// Repository benchmark (see README.md in this directory).
//
//   perfbench --workload archive|daemon --seed N --seconds S --trace 0|1
//             --workdir DIR
//
// The inputs are the repository's own seeded stand-in for the paper's
// Hurricane data set (src/data/generators.hpp) at the shape the table
// benches use (bench/bench_util.hpp), read through run_perf_suite's serving mix (the
// same region set, 80/20 hot-set picks, block edge, cache size and client
// count).  --seed selects the generated fields and the pick sequences; the
// library only ever sees the generated arrays.  With --trace 0 the
// workload's operation loop runs for S seconds and the end-to-end metrics
// are reported.  With --trace 1 each layer entry point (prediction and
// quantization pass, whole-field compress and decompress, CRC, archive
// ingest, open, cold region reads through pread, mmap and a sharded
// archive, cached read, daemon round trip) is called on its own inside a
// span, and the span medians are reported.
//
// The last line on stdout is the result object; progress goes to stderr.
// Every decoded value is checked against the generated input within the
// error bound, and every daemon response bit-for-bit against a direct read.
//
// There is no whole-field codec workload: on the 4-vCPU virtual machine the
// benchmark was tuned on, whole-field decompress time moved with the
// machine's noise phases by up to 1.5x between runs, more than region reads
// and daemon round trips did.  The codec kernels still run end to end in
// archive ingest and cold reads, and the traced run times them on their own.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "archive/reader.hpp"
#include "archive/writer.hpp"
#include "bench/bench_util.hpp"
#include "common/checksum.hpp"
#include "common/dims.hpp"
#include "common/pread_file.hpp"
#include "common/rng.hpp"
#include "core/compressor.hpp"
#include "data/generators.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace {

using sz14::Dims;
using sz14::Rng;
using sz14::archive::Region;
namespace bench = sz14::bench;
namespace data = sz14::data;

// The paper's evaluation bound: 1e-4 of each field's value range.
constexpr double kRelBound = 1e-4;
// run_perf_suite's serving scenarios at its default --threads 8: 24
// regions of 16^3, 80% of picks on the first 6, 32^3 archive blocks, a
// 256 MiB block cache, 8 daemon clients, 64 KiB shards for the sharded
// archive.  Writer, reader and server pools keep the library's default
// size (one worker per core).
constexpr std::size_t kRegions = 24, kRegionExtent = 16, kHot = 6;
constexpr std::size_t kBlockEdge = 32;
constexpr std::size_t kCacheBytes = 256u << 20;
constexpr std::size_t kClients = 8;
constexpr std::uint64_t kShardBytes = 64u << 10;
constexpr int kSetupRepeats = 7;

double now_s() {
  using namespace std::chrono;
  return duration<double>(steady_clock::now().time_since_epoch()).count();
}

// ---------------------------------------------------------------- inputs

struct Field {
  std::string name;
  std::vector<float> values;
  Dims dims;
  double eb = 0.0;  // absolute bound resolved from kRelBound
};

Field make_field(std::string name, data::Field f) {
  const double eb = kRelBound * bench::value_range(f.values);
  return {std::move(name), std::move(f.values), f.dims, eb};
}

/// Everything one workload feeds the library, and the references its
/// outputs are checked against.
struct Inputs {
  std::uint64_t seed = 0;
  std::vector<Field> fields;
  Dims block;
  std::vector<Region> regions;
  std::vector<std::vector<std::vector<float>>> want;  // [field][region]
};

/// The generated values of box `r` of a rank-3 field (row-major).
std::vector<float> slice(const Field& f, const Region& r) {
  std::vector<float> out;
  out.reserve(r.count());
  for (std::size_t z = 0; z < r.extent[0]; ++z)
    for (std::size_t y = 0; y < r.extent[1]; ++y) {
      const auto at = f.values.begin() +
                      static_cast<std::ptrdiff_t>(
                          (r.origin[0] + z) * f.dims.stride(0) +
                          (r.origin[1] + y) * f.dims.stride(1) + r.origin[2]);
      out.insert(out.end(), at, at + static_cast<std::ptrdiff_t>(r.extent[2]));
    }
  return out;
}

/// Both workloads: the three simulated Hurricane variables at
/// bench::hurricane()'s shape, as an archive would hold them.
Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  in.seed = seed;
  const char* variables[] = {"wind", "pressure", "moisture"};
  for (unsigned v = 0; v < 3; ++v)
    in.fields.push_back(
        make_field(variables[v], data::hurricane3d(25, 125, 125, seed, v)));
  const Dims& d = in.fields[0].dims;
  in.block = Dims{std::min(kBlockEdge, d.extent(0)),
                  std::min(kBlockEdge, d.extent(1)),
                  std::min(kBlockEdge, d.extent(2))};
  in.regions = bench::serving_regions(d, kRegions, kRegionExtent);
  for (const Field& f : in.fields) {
    in.want.emplace_back();
    for (const Region& r : in.regions) in.want.back().push_back(slice(f, r));
  }
  return in;
}

/// The paper's contract: |x - x'| <= eb for every point.
bool within_bound(std::span<const float> want, std::span<const float> got,
                  double eb) {
  if (want.size() != got.size()) return false;
  for (std::size_t i = 0; i < want.size(); ++i)
    if (!(std::fabs(static_cast<double>(want[i]) -
                    static_cast<double>(got[i])) <= eb))
      return false;
  return true;
}

// ---------------------------------------------------------------- results

/// One client's timed operations.
struct OpLog {
  std::vector<double> read_ms;  // latency of every read
  double bytes = 0;             // raw bytes of the ops that succeeded
  std::uint64_t attempted = 0, failed = 0;

  void add(bool read, double t0, double t1, std::size_t raw, bool ok) {
    ++attempted;
    if (ok)
      bytes += static_cast<double>(raw);
    else
      ++failed;
    if (read) read_ms.push_back((t1 - t0) * 1e3);
  }
};

struct Metric {
  std::string name, unit;
  double value;
};

struct Result {
  std::uint64_t attempted = 0, failed = 0;
  bool correct = true;
  std::vector<Metric> metrics;
};

void print_result(const Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct && r.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", r.metrics[i].name.c_str(),
                r.metrics[i].value, r.metrics[i].unit.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
}

// ---------------------------------------------------------------- archives

/// Ingest the first `count` fields of `in` into a fresh archive, sharded
/// when `shard_bytes` is not 0.
void write_archive(const Inputs& in, const std::string& path,
                   std::size_t count, std::uint64_t shard_bytes = 0) {
  sz14::archive::ArchiveWriter w(path, 0, {}, 0, shard_bytes);
  for (std::size_t f = 0; f < count; ++f) {
    const Field& fl = in.fields[f];
    w.append_field(fl.name, std::span<const float>(fl.values), fl.dims,
                   in.block, "sz14", fl.eb);
  }
  w.finish();
}

double raw_bytes(const Inputs& in) {
  double b = 0;
  for (const Field& f : in.fields) b += 4.0 * static_cast<double>(f.values.size());
  return b;
}

/// Unique in-process endpoint name for the loopback transport.
std::string endpoint_name() {
  static int n = 0;
  return "perfbench-" + std::to_string(::getpid()) + "-" + std::to_string(n++);
}

sz14::serve::ServerConfig server_config() {
  sz14::serve::ServerConfig cfg;
  cfg.transport = "loopback";
  cfg.endpoint = endpoint_name();
  cfg.cache_bytes = kCacheBytes;
  return cfg;
}

// ---------------------------------------------------------------- workloads

/// One workload's set-up state and operation loop.  setup() is timed
/// (setup_s) and repeated; run() is the measured loop; compression_factor
/// is raw bytes over stored bytes of what the workload wrote.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup(const Inputs& in) = 0;
  /// Run operations until `deadline`; one OpLog per concurrent client.
  virtual std::vector<OpLog> run(double deadline) = 0;
  virtual void teardown() {}
  double compression_factor = 0.0;
  bool setup_ok = true;
};

/// Archive ingest with cold region reads: each pass ingests the three
/// variables into a fresh archive (one op per field, one for seal + open),
/// then makes kRegions region reads with the cache off, each on a random
/// variable and a serving-mix region: a writer producing timesteps while
/// analysts read sub-volumes of the latest one.
class ArchiveWorkload final : public Workload {
 public:
  explicit ArchiveWorkload(std::string path) : path_(std::move(path)) {}

  void setup(const Inputs& in) override {
    in_ = &in;
    write_archive(in, path_, in.fields.size());
    compression_factor =
        raw_bytes(in) / static_cast<double>(std::filesystem::file_size(path_));
    sz14::archive::ArchiveReader reader(path_);
    for (std::size_t f = 0; f < in.fields.size(); ++f)
      for (std::size_t i = 0; i < in.regions.size(); ++i)
        setup_ok = setup_ok &&
                   within_bound(in.want[f][i],
                                reader.read_region(in.fields[f].name,
                                                   in.regions[i]),
                                in.fields[f].eb);
  }

  std::vector<OpLog> run(double deadline) override {
    OpLog log;
    Rng rng(in_->seed);
    while (now_s() < deadline) {
      std::filesystem::remove(path_);
      std::unique_ptr<sz14::archive::ArchiveReader> reader;
      {
        sz14::archive::ArchiveWriter w(path_);
        for (std::size_t f = 0; f < in_->fields.size(); ++f) {
          const Field& fl = in_->fields[f];
          const double t0 = now_s();
          bool ok = true;
          try {
            w.append_field(fl.name, std::span<const float>(fl.values), fl.dims,
                           in_->block, "sz14", fl.eb);
          } catch (const std::exception& e) {
            std::fprintf(stderr, "append failed: %s\n", e.what());
            ok = false;
          }
          log.add(false, t0, now_s(), 4 * fl.values.size(), ok);
        }
        const double t0 = now_s();
        w.finish();
        reader = std::make_unique<sz14::archive::ArchiveReader>(path_);
        log.add(false, t0, now_s(), 0,
                reader->fields().size() == in_->fields.size());
      }
      for (std::size_t k = 0; k < kRegions; ++k) {
        const std::size_t i = bench::serving_pick(rng, kHot, kRegions);
        const std::size_t f = rng.below(in_->fields.size());
        const Field& fl = in_->fields[f];
        const double t0 = now_s();
        std::vector<float> got;
        try {
          got = reader->read_region(fl.name, in_->regions[i]);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "region read failed: %s\n", e.what());
        }
        const double t1 = now_s();
        log.add(true, t0, t1, 4 * in_->want[f][i].size(),
                within_bound(in_->want[f][i], got, fl.eb));
      }
    }
    return {std::move(log)};
  }

  void teardown() override { std::filesystem::remove(path_); }

 private:
  std::string path_;
  const Inputs* in_ = nullptr;
};

/// Hot daemon reads: `sz14 serve`'s Server over the in-process loopback
/// transport, kClients closed-loop clients, each sending its next request
/// (a random variable and a serving-mix region) when the last one returns.
/// Set-up ingests the archive, starts the server and warms its cache with
/// every region of every variable, so the measured loop is protocol, event
/// loop, pool dispatch, cache and scatter; decode happens only in set-up.
class DaemonWorkload final : public Workload {
 public:
  explicit DaemonWorkload(std::string path) : path_(std::move(path)) {}

  void setup(const Inputs& in) override {
    in_ = &in;
    write_archive(in, path_, in.fields.size());
    compression_factor =
        raw_bytes(in) / static_cast<double>(std::filesystem::file_size(path_));
    direct_.assign(in.fields.size(), {});
    {
      sz14::archive::ArchiveReader direct(path_);
      for (std::size_t f = 0; f < in.fields.size(); ++f)
        for (std::size_t i = 0; i < in.regions.size(); ++i) {
          direct_[f].push_back(
              direct.read_region(in.fields[f].name, in.regions[i]));
          setup_ok = setup_ok && within_bound(in.want[f][i], direct_[f].back(),
                                              in.fields[f].eb);
        }
    }
    server_ = std::make_unique<sz14::serve::Server>(path_, server_config());
    server_->start();
    sz14::serve::Client warm("loopback", server_->endpoint());
    for (std::size_t f = 0; f < in.fields.size(); ++f)
      for (std::size_t i = 0; i < in.regions.size(); ++i)
        setup_ok = setup_ok && warm.read_region(in.fields[f].name,
                                                in.regions[i]) == direct_[f][i];
  }

  std::vector<OpLog> run(double deadline) override {
    std::vector<OpLog> logs(kClients);
    std::vector<std::jthread> clients;
    for (std::size_t c = 0; c < kClients; ++c)
      clients.emplace_back([&, c] {
        OpLog& log = logs[c];
        Rng rng(in_->seed * kClients + c);
        try {
          sz14::serve::Client client("loopback", server_->endpoint());
          while (now_s() < deadline) {
            const std::size_t i = bench::serving_pick(rng, kHot, kRegions);
            const std::size_t f = rng.below(in_->fields.size());
            const double t0 = now_s();
            const auto got = client.read_region(in_->fields[f].name,
                                                in_->regions[i]);
            const double t1 = now_s();
            log.add(true, t0, t1, 4 * got.size(), got == direct_[f][i]);
          }
        } catch (const std::exception& e) {
          std::fprintf(stderr, "daemon client failed: %s\n", e.what());
          ++log.attempted;
          ++log.failed;
        }
      });
    clients.clear();  // joins
    return logs;
  }

  void teardown() override {
    if (server_) server_->stop();
    server_.reset();
    std::filesystem::remove(path_);
  }

 private:
  std::string path_;
  const Inputs* in_ = nullptr;
  std::vector<std::vector<std::vector<float>>> direct_;  // [field][region]
  std::unique_ptr<sz14::serve::Server> server_;
};

/// Set-up runs kSetupRepeats times on inputs generated once beforehand and
/// reports the median; the last set-up is the one measured.  Throughput is
/// the raw bytes of every op that succeeded over the loop's wall time, all
/// clients together; read latencies are percentiles over every read.
Result run_end_to_end(const std::string& workload, Workload& w,
                      const Inputs& in, double seconds) {
  Result res;
  std::vector<double> setups;
  for (int k = 0; k < kSetupRepeats; ++k) {
    if (k > 0) w.teardown();
    const double t0 = now_s();
    w.setup(in);
    setups.push_back(now_s() - t0);
  }
  res.correct = w.setup_ok;

  const double t0 = now_s();
  std::vector<OpLog> logs = w.run(t0 + seconds);
  const double wall = now_s() - t0;
  w.teardown();

  double bytes = 0;
  std::vector<double> reads;
  for (const OpLog& l : logs) {
    res.attempted += l.attempted;
    res.failed += l.failed;
    bytes += l.bytes;
    reads.insert(reads.end(), l.read_ms.begin(), l.read_ms.end());
  }
  std::fprintf(stderr, "%s: %llu ops (%zu reads) in %.2f s, %llu failed\n",
               workload.c_str(), static_cast<unsigned long long>(res.attempted),
               reads.size(), wall, static_cast<unsigned long long>(res.failed));
  res.metrics = {
      {"throughput_MBps", "MB/s", bytes / 1e6 / wall},
      {"read_p50_ms", "ms", bench::percentile(reads, 50.0)},
      {"read_p90_ms", "ms", bench::percentile(reads, 90.0)},
      {"compression_factor", "ratio", w.compression_factor},
      {"setup_s", "s", bench::percentile(setups, 50.0)},
  };
  return res;
}

// ---------------------------------------------------------------- per-layer

/// One layer's cost in ms: `op(i)` runs for every i < n, in passes, until
/// `seconds` have passed (at least 3 passes), one span per call; the median
/// span is returned.  `check(i)` runs outside the span and returns false on
/// a wrong output.
double layer_ms(double seconds, std::size_t n, Result& res,
                const std::function<void(std::size_t)>& op,
                const std::function<bool(std::size_t)>& check) {
  constexpr int kMinPasses = 3;
  std::vector<double> spans;
  const double end = now_s() + seconds;
  for (int pass = 0; pass < kMinPasses || now_s() < end; ++pass)
    for (std::size_t i = 0; i < n; ++i) {
      bool ok = true;
      const double t0 = now_s();
      try {
        op(i);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "layer call failed: %s\n", e.what());
        ok = false;
      }
      spans.push_back((now_s() - t0) * 1e3);
      ++res.attempted;
      if (!(ok && check(i))) ++res.failed;
    }
  return bench::percentile(spans, 50.0);
}

/// The traced run: each layer entry point on the first variable, the
/// archive block shape and the region set, one span per call.
Result run_per_layer(const Inputs& in, const std::string& dir,
                     double seconds) {
  Result res;
  const Field& f = in.fields[0];
  const std::span<const float> data(f.values);
  const double mb = 4.0 * static_cast<double>(f.values.size()) / 1e6;
  const double share = seconds / 12.0;
  const std::size_t n = in.regions.size();
  sz14::Options opts;
  opts.eb_abs = f.eb;

  // Codec core: predictor + quantizer alone (the paper's Algorithm 1
  // steps 1-2), then the whole compressor and decompressor.
  sz14::PassResult p;
  const double pass_ms = layer_ms(
      share, 1, res,
      [&](std::size_t) {
        p = sz14::prediction_quantization_pass(data, f.dims, 1, 8, f.eb);
      },
      [&](std::size_t) { return p.codes.size() == f.values.size(); });
  std::vector<std::uint8_t> stream;
  const double comp_ms = layer_ms(
      share, 1, res,
      [&](std::size_t) { stream = sz14::compress(data, f.dims, opts); },
      [&](std::size_t) { return !stream.empty(); });
  sz14::DecompressResult back;
  const double decomp_ms = layer_ms(
      share, 1, res, [&](std::size_t) { back = sz14::decompress(stream); },
      [&](std::size_t) { return within_bound(f.values, back.data, f.eb); });
  const std::uint32_t crc = sz14::crc32(stream);
  std::uint32_t got_crc = 0;
  const double crc_ms = layer_ms(
      share * 0.5, 1, res, [&](std::size_t) { got_crc = sz14::crc32(stream); },
      [&](std::size_t) { return got_crc == crc; });
  const double stream_mb = static_cast<double>(stream.size()) / 1e6;

  // Archive: ingest of the variable alone, open, then cold reads through
  // each fetch path and cached reads.
  const std::string path = dir + "/layer.sza";
  const std::string sharded = dir + "/layer.szm";
  const double ingest_ms = layer_ms(
      share * 1.5, 1, res, [&](std::size_t) { write_archive(in, path, 1); },
      [&](std::size_t) { return std::filesystem::file_size(path) > 0; });
  write_archive(in, sharded, 1, kShardBytes);
  std::size_t opened_fields = 0;
  const double open_ms = layer_ms(
      share * 0.5, 1, res,
      [&](std::size_t) {
        sz14::archive::ArchiveReader r(path);
        opened_fields = r.fields().size();
      },
      [&](std::size_t) { return opened_fields == 1; });

  std::vector<float> got;
  const auto cold_read = [&](sz14::archive::ArchiveReader& r) {
    return layer_ms(
        share, n, res,
        [&](std::size_t i) { got = r.read_region(f.name, in.regions[i]); },
        [&](std::size_t i) { return within_bound(in.want[0][i], got, f.eb); });
  };
  sz14::archive::ArchiveReader cold(path);
  const double cold_ms = cold_read(cold);
  // Blocks decoded over one pass of the region set.
  cold.reset_counters();
  std::size_t requested = 0;
  for (const Region& r : in.regions) {
    (void)cold.read_region(f.name, r);
    requested += r.count();
  }
  const double blocks = static_cast<double>(cold.blocks_decoded());
  sz14::archive::ArchiveReader mapped(path, 0, {},
                                      sz14::archive::OpenMode::kStrict,
                                      sz14::FetchMode::kMmap);
  const double mmap_ms = cold_read(mapped);
  sz14::archive::ArchiveReader shards(sharded, 0, {},
                                      sz14::archive::OpenMode::kStrict,
                                      sz14::FetchMode::kMmap);
  const double sharded_ms = cold_read(shards);
  if (mapped.fetch_mode() != sz14::FetchMode::kMmap ||
      shards.fetch_mode() != sz14::FetchMode::kMmap)
    std::fprintf(stderr, "perfbench: warning: mmap fell back to pread\n");

  sz14::archive::ArchiveReader hot(path);
  hot.set_cache_capacity(kCacheBytes);
  std::vector<std::vector<float>> direct;
  for (std::size_t i = 0; i < n; ++i) {
    direct.push_back(hot.read_region(f.name, in.regions[i]));
    res.correct = res.correct && within_bound(in.want[0][i], direct.back(), f.eb);
  }
  const double hot_ms = layer_ms(
      share, n, res,
      [&](std::size_t i) { got = hot.read_region(f.name, in.regions[i]); },
      [&](std::size_t i) { return got == direct[i]; });

  // Daemon: one client against a warmed server on the same archive.
  double daemon_ms = 0;
  {
    sz14::serve::Server server(path, server_config());
    server.start();
    sz14::serve::Client client("loopback", server.endpoint());
    for (const Region& r : in.regions) (void)client.read_region(f.name, r);
    daemon_ms = layer_ms(
        share * 1.5, n, res,
        [&](std::size_t i) { got = client.read_region(f.name, in.regions[i]); },
        [&](std::size_t i) { return got == direct[i]; });
    server.stop();
  }

  res.metrics = {
      {"pass_ms_per_MB", "ms/MB", pass_ms / mb},
      {"compress_ms_per_MB", "ms/MB", comp_ms / mb},
      {"decompress_ms_per_MB", "ms/MB", decomp_ms / mb},
      {"crc_ms_per_MB", "ms/MB", crc_ms / stream_mb},
      {"hit_rate", "ratio",
       static_cast<double>(p.predictable) / static_cast<double>(f.values.size())},
      {"ingest_ms_per_MB", "ms/MB", ingest_ms / mb},
      {"open_ms", "ms", open_ms},
      {"cold_read_ms", "ms", cold_ms},
      {"mmap_read_ms", "ms", mmap_ms},
      {"sharded_read_ms", "ms", sharded_ms},
      {"blocks_per_read", "count", blocks / static_cast<double>(n)},
      {"read_amplification", "ratio",
       blocks * static_cast<double>(in.block.count()) /
           static_cast<double>(requested)},
      {"hot_read_ms", "ms", hot_ms},
      {"daemon_read_ms", "ms", daemon_ms},
      {"daemon_overhead_ms", "ms", daemon_ms - hot_ms},
  };
  return res;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload archive|daemon --seed N "
               "--seconds S --trace 0|1 --workdir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, workdir;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int a = 1; a + 1 < argc; a += 2) {
    const std::string k = argv[a], v = argv[a + 1];
    if (k == "--workload") workload = v;
    else if (k == "--seed") seed = std::stoull(v);
    else if (k == "--seconds") seconds = std::stod(v);
    else if (k == "--trace") trace = std::stoi(v);
    else if (k == "--workdir") workdir = v;
    else return usage();
  }
  if ((workload != "archive" && workload != "daemon") || workdir.empty() ||
      seconds <= 0 || (trace != 0 && trace != 1))
    return usage();

  try {
    std::filesystem::create_directories(workdir);
    const Inputs in = make_inputs(seed);
    Result res;
    if (trace == 1) {
      res = run_per_layer(in, workdir, seconds);
    } else {
      const std::string path = workdir + "/" + workload + ".sza";
      std::unique_ptr<Workload> w;
      if (workload == "archive") w = std::make_unique<ArchiveWorkload>(path);
      else w = std::make_unique<DaemonWorkload>(path);
      res = run_end_to_end(workload, *w, in, seconds);
    }
    print_result(res);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
