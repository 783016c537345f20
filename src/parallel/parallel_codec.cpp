#include "parallel/parallel_codec.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <future>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "common/bytebuffer.hpp"
#include "common/timer.hpp"
#include "core/chunk_codec.hpp"
#include "core/format.hpp"
#include "parallel/thread_pool.hpp"

namespace sz14 {

namespace {

/// Container magic, v3 ("SZP3"): shared-entropy-table slab layout with an
/// explicit entropy-backend byte (0 = Huffman, 1 = rANS) after the
/// decorrelate flag.  v2 ("SZP2") — the same layout minus that byte,
/// always Huffman — is still read; new streams are always v3.  The v1
/// per-chunk-stream container ("SZPC") is retired; the format is internal
/// to this module and never persisted by the archive.
constexpr std::uint32_t kParallelMagic = 0x535A'5033u;
constexpr std::uint32_t kParallelMagicV2 = 0x535A'5032u;

/// Chunk c of n: the offset of its first element and its shape.
std::pair<std::size_t, Dims> slab_of(const Dims& dims, std::size_t chunks,
                                     std::size_t c) {
  const std::size_t rows = dims.extent(0);
  const std::size_t lo = rows * c / chunks;
  return {lo * (dims.count() / rows),
          dims.with_planes(rows * (c + 1) / chunks - lo)};
}

/// Per-slab intermediate state between the walk phase and the encode phase.
struct SlabWork {
  std::size_t count = 0;
  std::unique_ptr<std::uint16_t[]> codes;
  ChunkWalk walk;
  std::vector<std::uint64_t> hist;
  ByteWriter payload;  // varint n_bytes | entropy payload
};

/// The policy's pool, or a private one of `exec.threads` workers in `own`.
ThreadPool& pool_of(const ExecPolicy& exec, std::optional<ThreadPool>& own) {
  return exec.pool != nullptr ? *exec.pool : own.emplace(exec.threads);
}

}  // namespace

bool is_parallel_stream(std::span<const std::uint8_t> stream) noexcept {
  if (stream.size() < 4) return false;
  std::uint32_t magic;
  std::memcpy(&magic, stream.data(), 4);
  return magic == kParallelMagic || magic == kParallelMagicV2;
}

ParallelResult parallel_compress(std::span<const float> data, const Dims& dims,
                                 const Options& opts, std::size_t chunks) {
  if (data.size() != dims.count())
    throw std::invalid_argument("parallel_compress: size mismatch");
  std::optional<ThreadPool> own_pool;
  ThreadPool& pool = pool_of(opts.exec, own_pool);
  if (chunks == 0) chunks = pool.thread_count();
  chunks = std::min(std::max<std::size_t>(chunks, 1), dims.extent(0));

  // Resolve ONE bound against the whole field (v1 resolved per slab, which
  // made eb_rel streams depend on the chunking).
  const double eb = resolve_error_bound_for(data, opts);
  if (std::isnan(eb))
    throw std::invalid_argument(
        "parallel_compress: no usable error bound (set eb_abs and/or eb_rel)");

  const ChunkParams p{eb, opts.interval_bits, opts.layers, opts.decorrelate};
  std::vector<SlabWork> slabs(chunks);

  Timer timer;

  // Phase 1 — the chunk walk of every slab in parallel; each worker
  // histograms its own slab's codes while they are cache-hot.  The recon
  // buffer is slab-local and dies with the task.
  pool.run_batch(chunks, [&](std::size_t c) {
    const auto [offset, sub] = slab_of(dims, chunks, c);
    SlabWork& w = slabs[c];
    w.count = sub.count();
    w.codes = std::make_unique_for_overwrite<std::uint16_t[]>(w.count);
    const auto recon = std::make_unique_for_overwrite<float[]>(w.count);
    w.walk = encode_chunk<float>(data.subspan(offset, w.count), sub, p,
                                 {w.codes.get(), w.count},
                                 {recon.get(), w.count});
    w.hist = huffman_histogram({w.codes.get(), w.count}, p.alphabet_size());
  });

  // Merge the per-worker histograms BEFORE table assignment: one shared
  // entropy table serves every slab (v1 paid one table per chunk).
  std::vector<std::uint64_t> freqs(p.alphabet_size(), 0);
  for (const SlabWork& w : slabs)
    for (std::size_t s = 0; s < freqs.size(); ++s) freqs[s] += w.hist[s];
  const EntropyTable table(opts.exec.entropy, freqs);

  ParallelResult r;
  r.chunks = chunks;
  r.eb_abs = eb;
  for (const SlabWork& w : slabs) r.predictable += w.walk.predictable;

  ByteWriter out;
  out.put<std::uint32_t>(kParallelMagic);
  write_dims(dims, out);
  out.put_varint(chunks);
  out.put<double>(eb);
  out.put<std::uint8_t>(static_cast<std::uint8_t>(opts.interval_bits));
  out.put<std::uint8_t>(static_cast<std::uint8_t>(opts.layers));
  out.put<std::uint8_t>(opts.decorrelate ? 1 : 0);
  out.put<std::uint8_t>(static_cast<std::uint8_t>(opts.exec.entropy));
  table.write(out, /*tagged=*/false);

  // Phase 2 — pipelined entropy encode: every slab's payload emit runs on
  // the pool; this thread appends slab i to the container as soon as it is
  // ready, while slabs i+1.. are still encoding.  Append order (and
  // therefore the stream) depends only on the chunk count.
  // Every task references `slabs` and `table`, so no path may leave this
  // scope before each submitted task has finished — including a throw from
  // submit() itself, from a slab's emit or from the append loop.
  std::vector<std::future<double>> emitted;  // each slab's emit CPU seconds
  emitted.reserve(chunks);
  try {
    for (std::size_t c = 0; c < chunks; ++c) {
      auto emit = std::make_shared<std::packaged_task<double()>>([&, c] {
        SlabWork& w = slabs[c];
        const ThreadCpuTimer emit_timer;
        table.append_payload({w.codes.get(), w.count}, w.hist, w.payload);
        const double seconds = emit_timer.seconds();
        w.codes.reset();
        return seconds;
      });
      emitted.push_back(emit->get_future());
      pool.submit([emit] { (*emit)(); });
    }
    for (std::size_t c = 0; c < chunks; ++c) {
      r.entropy_encode_seconds += emitted[c].get();
      SlabWork& w = slabs[c];
      out.put_bytes(w.payload.view());
      out.put_varint(w.walk.unpred_bits.size());
      out.put_bytes(w.walk.unpred_bits);
      w = SlabWork{};  // release slab memory before later slabs finish
    }
  } catch (...) {
    for (auto& pending : emitted)
      if (pending.valid()) pending.wait();
    throw;
  }

  r.seconds = timer.seconds();
  r.stream = std::move(out).take();
  return r;
}

ParallelDecompressResult parallel_decompress(
    std::span<const std::uint8_t> stream, const ExecPolicy& exec) {
  ByteReader in(stream);
  const auto magic = in.get<std::uint32_t>();
  if (magic != kParallelMagic && magic != kParallelMagicV2)
    throw std::runtime_error("parallel_decompress: bad magic");
  const Dims dims = read_dims(in);
  const auto chunks = static_cast<std::size_t>(in.get_varint());
  if (chunks == 0 || chunks > dims.extent(0))
    throw std::runtime_error("parallel_decompress: bad chunk count");
  // Braced initializers run in order: eb, m, n, decorrelate.
  const ChunkParams p{in.get<double>(), in.get<std::uint8_t>(),
                      in.get<std::uint8_t>(), in.get<std::uint8_t>() != 0};
  check_codec_params(p.eb, p.interval_bits, p.layers);
  // v3 carries an explicit entropy-backend byte; v2 is always Huffman.
  // One shared decoder table serves every slab, mirroring the encoder.
  const auto backend = static_cast<EntropyBackend>(
      magic == kParallelMagic ? in.get<std::uint8_t>() : 0);
  const EntropyTable table(backend, in, /*tagged=*/false);

  std::vector<std::span<const std::uint8_t>> payloads(chunks);
  std::vector<std::span<const std::uint8_t>> unpreds(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    payloads[c] = in.get_bytes(static_cast<std::size_t>(in.get_varint()));
    unpreds[c] = in.get_bytes(static_cast<std::size_t>(in.get_varint()));
  }

  ParallelDecompressResult r;
  r.dims = dims;
  r.data.resize(dims.count());

  std::optional<ThreadPool> own_pool;
  ThreadPool& pool = pool_of(exec, own_pool);
  Timer timer;
  std::vector<double> entropy_seconds(chunks, 0.0);
  // run_batch rethrows the first slab's failure on this thread.  Each
  // slab decodes straight into its place in the output array.
  pool.run_batch(chunks, [&](std::size_t c) {
    const auto [offset, sub] = slab_of(dims, chunks, c);
    decode_chunk<float>(table, payloads[c], sub.count(), unpreds[c], sub,
                        sub.extents(), p,
                        std::span<float>(r.data).subspan(offset, sub.count()),
                        nullptr, &entropy_seconds[c]);
  });
  r.seconds = timer.seconds();
  for (const double s : entropy_seconds) r.entropy_decode_seconds += s;
  return r;
}

}  // namespace sz14
