#include "parallel/parallel_codec.hpp"

#include <array>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "common/bitstream.hpp"
#include "common/bytebuffer.hpp"
#include "common/timer.hpp"
#include "core/kernels.hpp"
#include "core/predictor.hpp"
#include "core/quantizer.hpp"
#include "core/unpredictable.hpp"
#include "encoding/huffman.hpp"
#include "encoding/rans.hpp"

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

/// Slab extents along axis 0 for chunk c of n.
struct Slab {
  std::size_t row_lo, row_hi;  // [lo, hi) along axis 0
};

Slab slab_of(std::size_t rows, std::size_t chunks, std::size_t c) {
  return {rows * c / chunks, rows * (c + 1) / chunks};
}

Dims slab_dims(const Dims& dims, const Slab& s) {
  std::array<std::size_t, kMaxDims> ext{};
  for (std::size_t a = 0; a < dims.rank(); ++a) ext[a] = dims.extent(a);
  ext[0] = s.row_hi - s.row_lo;
  return Dims(std::span<const std::size_t>(ext.data(), dims.rank()));
}

/// Per-slab intermediate state between the walk phase and the encode phase.
struct SlabWork {
  std::size_t count = 0;
  std::unique_ptr<std::uint16_t[]> codes;
  std::vector<std::uint8_t> unpred_bits;
  std::vector<std::uint64_t> hist;
  std::size_t predictable = 0;
  std::vector<std::uint8_t> payload;
};

}  // namespace

bool is_parallel_stream(std::span<const std::uint8_t> stream) noexcept {
  if (stream.size() < 4) return false;
  std::uint32_t magic;
  std::memcpy(&magic, stream.data(), 4);
  return magic == kParallelMagic || magic == kParallelMagicV2;
}

ParallelResult parallel_compress(std::span<const float> data, const Dims& dims,
                                 const Options& opts, ThreadPool& pool,
                                 std::size_t chunks) {
  if (data.size() != dims.count())
    throw std::invalid_argument("parallel_compress: size mismatch");
  if (chunks == 0) chunks = pool.thread_count();
  chunks = std::min(std::max<std::size_t>(chunks, 1), dims.extent(0));

  CodecScratch* const scratch = opts.exec.scratch;

  // Resolve ONE bound against the whole field (v1 resolved per slab, which
  // made eb_rel streams depend on the chunking).
  const double eb = resolve_error_bound_for(data, opts);
  if (std::isnan(eb))
    throw std::invalid_argument(
        "parallel_compress: no usable error bound (set eb_abs and/or eb_rel)");

  const std::size_t slab_stride = dims.count() / dims.extent(0);
  const LinearQuantizer quantizer(opts.interval_bits, eb);
  const std::size_t alphabet = quantizer.alphabet_size();
  std::vector<SlabWork> slabs(chunks);

  Timer timer;

  // Phase 1 — prediction+quantization walk of every slab in parallel; each
  // worker histograms its own slab's codes while they are cache-hot.  The
  // recon buffer is pure slab-local scratch, so it comes from the arena's
  // per-worker slot when the policy carries one.
  pool.run_batch(chunks, [&](std::size_t c) {
    const Slab s = slab_of(dims.extent(0), chunks, c);
    const Dims sub = slab_dims(dims, s);
    SlabWork& w = slabs[c];
    w.count = sub.count();
    w.codes = std::make_unique_for_overwrite<std::uint16_t[]>(w.count);
    std::unique_ptr<float[]> recon_own;
    const std::span<float> recon =
        scratch_recon_or<float>(scratch, recon_own, w.count);
    const LayerPredictor predictor(sub, opts.layers);
    const UnpredictableCodecT<float> unpred(eb);
    BitWriter bw;
    const detail::PassCounters counters = detail::pq_compress_walk<float>(
        data.subspan(s.row_lo * slab_stride, w.count), sub, predictor,
        quantizer, unpred, eb, opts.decorrelate, opts.exec.mode,
        {w.codes.get(), w.count}, recon, bw);
    w.unpred_bits = std::move(bw).finish();
    w.predictable = counters.predictable;
    w.hist = huffman_histogram({w.codes.get(), w.count}, alphabet);
  });

  // Merge the per-worker histograms BEFORE table assignment: one shared
  // entropy table serves every slab (v1 paid one table per chunk) —
  // canonical Huffman codes by default, a normalized rANS frequency table
  // when the policy selects the rANS backend.
  std::vector<std::uint64_t> freqs(alphabet, 0);
  for (const SlabWork& w : slabs)
    for (std::size_t s = 0; s < alphabet; ++s) freqs[s] += w.hist[s];
  const bool use_rans = opts.exec.entropy == EntropyBackend::kRans;
  std::vector<std::uint8_t> lengths;
  std::vector<std::uint64_t> packed;
  std::vector<std::uint32_t> rfreqs;
  std::optional<RansEncTable> rtable;
  if (use_rans) {
    rfreqs = rans_normalize_freqs(freqs);
    rtable.emplace(rfreqs);
  } else {
    lengths = huffman_code_lengths(freqs);
    packed = huffman_pack_codes(lengths, huffman_canonical_codes(lengths));
  }

  ParallelResult r;
  r.chunks = chunks;
  r.eb_abs = eb;
  for (const SlabWork& w : slabs) r.predictable += w.predictable;

  ByteWriter out;
  out.put<std::uint32_t>(kParallelMagic);
  out.put<std::uint8_t>(static_cast<std::uint8_t>(dims.rank()));
  for (std::size_t a = 0; a < dims.rank(); ++a) out.put_varint(dims.extent(a));
  out.put_varint(chunks);
  out.put<double>(eb);
  out.put<std::uint8_t>(static_cast<std::uint8_t>(opts.interval_bits));
  out.put<std::uint8_t>(static_cast<std::uint8_t>(opts.layers));
  out.put<std::uint8_t>(opts.decorrelate ? 1 : 0);
  out.put<std::uint8_t>(use_rans ? 1 : 0);
  if (use_rans)
    rans_write_freqs(rfreqs, out);
  else
    huffman_write_lengths(lengths, out);

  // Phase 2 — pipelined entropy encode: every slab's payload emit runs on
  // the pool; this thread appends slab i to the container as soon as it is
  // ready, while slabs i+1.. are still encoding.  Append order (and
  // therefore the stream) depends only on the chunk count.
  std::mutex m;
  std::condition_variable cv;
  std::vector<char> done(chunks, 0);
  std::vector<double> emit_seconds(chunks, 0.0);
  std::exception_ptr error;
  // Every in-flight task references these stack locals, so NO path may
  // leave this scope before all submitted tasks have flagged done[] —
  // including a throw from submit() itself or from the append loop below.
  std::size_t submitted = 0;
  const auto drain_submitted = [&]() noexcept {
    std::unique_lock lock(m);
    for (std::size_t c = 0; c < submitted; ++c)
      cv.wait(lock, [&] { return done[c] != 0; });
  };
  try {
    for (std::size_t c = 0; c < chunks; ++c) {
      pool.submit([&, c] {
        try {
          SlabWork& w = slabs[c];
          ThreadCpuTimer emit_timer;
          if (use_rans) {
            rans_append_payload({w.codes.get(), w.count}, *rtable, w.payload);
          } else {
            std::uint64_t bits = 0;
            for (std::size_t s = 0; s < alphabet; ++s)
              bits += w.hist[s] * lengths[s];
            w.payload.reserve((bits + 7) / 8);
            huffman_append_payload({w.codes.get(), w.count}, packed,
                                   w.payload, bits);
          }
          emit_seconds[c] = emit_timer.seconds();
          w.codes.reset();
        } catch (...) {
          std::lock_guard lock(m);
          if (!error) error = std::current_exception();
        }
        {
          std::lock_guard lock(m);
          done[c] = 1;
          cv.notify_all();
        }
      });
      ++submitted;
    }
    std::unique_lock lock(m);
    for (std::size_t c = 0; c < chunks; ++c) {
      cv.wait(lock, [&] { return done[c] != 0; });
      if (error) continue;  // keep draining so locals stay alive
      lock.unlock();
      SlabWork& w = slabs[c];
      out.put_varint(w.payload.size());
      out.put_bytes(w.payload);
      out.put_varint(w.unpred_bits.size());
      out.put_bytes(w.unpred_bits);
      w = SlabWork{};  // release slab memory before later slabs finish
      lock.lock();
    }
  } catch (...) {
    drain_submitted();
    throw;
  }
  if (error) std::rethrow_exception(error);

  r.seconds = timer.seconds();
  for (const double s : emit_seconds) r.entropy_encode_seconds += s;
  r.stream = std::move(out).take();
  return r;
}

ParallelResult parallel_compress(std::span<const float> data, const Dims& dims,
                                 const Options& opts, std::size_t chunks) {
  if (opts.exec.pool != nullptr)
    return parallel_compress(data, dims, opts, *opts.exec.pool, chunks);
  ThreadPool pool(opts.exec.threads);  // 0 = hardware_concurrency
  return parallel_compress(data, dims, opts, pool, chunks);
}

namespace {

ParallelDecompressResult parallel_decompress_impl(
    std::span<const std::uint8_t> stream, ThreadPool& pool,
    CodecScratch* scratch) {
  ByteReader in(stream);
  const auto magic = in.get<std::uint32_t>();
  if (magic != kParallelMagic && magic != kParallelMagicV2)
    throw std::runtime_error("parallel_decompress: bad magic");
  const auto rank = in.get<std::uint8_t>();
  if (rank == 0 || rank > kMaxDims)
    throw std::runtime_error("parallel_decompress: bad rank");
  std::array<std::size_t, kMaxDims> ext{};
  for (std::size_t a = 0; a < rank; ++a)
    ext[a] = static_cast<std::size_t>(in.get_varint());
  const Dims dims(std::span<const std::size_t>(ext.data(), rank));
  const auto chunks = static_cast<std::size_t>(in.get_varint());
  if (chunks == 0 || chunks > dims.extent(0))
    throw std::runtime_error("parallel_decompress: bad chunk count");
  const double eb = in.get<double>();
  if (!std::isfinite(eb) || eb < 0.0)
    throw std::runtime_error("parallel_decompress: bad error bound");
  const auto interval_bits = in.get<std::uint8_t>();
  if (interval_bits < 2 || interval_bits > 16)
    throw std::runtime_error("parallel_decompress: bad interval bits");
  const auto layers = in.get<std::uint8_t>();
  if (layers == 0)
    throw std::runtime_error("parallel_decompress: bad layer count");
  const bool decorrelate = in.get<std::uint8_t>() != 0;
  // v3 carries an explicit entropy-backend byte; v2 is always Huffman.
  bool use_rans = false;
  if (magic == kParallelMagic) {
    const auto entropy = in.get<std::uint8_t>();
    if (entropy > 1)
      throw std::runtime_error("parallel_decompress: bad entropy backend");
    use_rans = entropy == 1;
  }
  // One shared decoder table serves every slab, mirroring the encoder.
  std::optional<HuffmanDecoder> hdec;
  std::optional<RansDecoder> rdec;
  if (use_rans)
    rdec.emplace(rans_read_freqs(in));
  else
    hdec.emplace(huffman_read_lengths(in));

  std::vector<std::span<const std::uint8_t>> payloads(chunks);
  std::vector<std::span<const std::uint8_t>> unpreds(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    payloads[c] = in.get_bytes(static_cast<std::size_t>(in.get_varint()));
    unpreds[c] = in.get_bytes(static_cast<std::size_t>(in.get_varint()));
  }

  ParallelDecompressResult r;
  r.dims = dims;
  r.data.resize(dims.count());
  const std::size_t slab_stride = dims.count() / dims.extent(0);
  const LinearQuantizer quantizer(interval_bits, eb);

  Timer timer;
  std::vector<double> entropy_seconds(chunks, 0.0);
  // run_batch rethrows the first slab's failure on this thread.  Each
  // slab's code array lives only inside its task, so with an arena it
  // comes from the worker's reusable code vector.
  pool.run_batch(chunks, [&](std::size_t c) {
    const Slab s = slab_of(dims.extent(0), chunks, c);
    const Dims sub = slab_dims(dims, s);
    std::vector<std::uint16_t> codes_own;
    std::vector<std::uint16_t>& codes =
        scratch_code_vector_or(scratch, codes_own);
    ThreadCpuTimer entropy_timer;
    if (use_rans)
      rdec->decode_payload_into(payloads[c], sub.count(), codes);
    else
      huffman_decode_payload_into(*hdec, payloads[c], sub.count(), codes);
    entropy_seconds[c] = entropy_timer.seconds();
    const LayerPredictor predictor(sub, layers);
    const UnpredictableCodecT<float> unpred(eb);
    BitReader br(unpreds[c]);
    detail::pq_decompress_walk<float>(
        codes, sub, predictor, quantizer, unpred, decorrelate,
        std::span<float>(r.data.data() + s.row_lo * slab_stride, sub.count()),
        br, scratch);
  });
  r.seconds = timer.seconds();
  for (const double s : entropy_seconds) r.entropy_decode_seconds += s;
  return r;
}

}  // namespace

ParallelDecompressResult parallel_decompress(
    std::span<const std::uint8_t> stream, const ExecPolicy& exec) {
  if (exec.pool != nullptr)
    return parallel_decompress_impl(stream, *exec.pool, exec.scratch);
  ThreadPool pool(exec.threads);  // 0 = hardware_concurrency
  return parallel_decompress_impl(stream, pool, exec.scratch);
}

ParallelDecompressResult parallel_decompress(
    std::span<const std::uint8_t> stream, ThreadPool& pool) {
  return parallel_decompress_impl(stream, pool, nullptr);
}

ParallelDecompressResult parallel_decompress(
    std::span<const std::uint8_t> stream, std::size_t threads) {
  ThreadPool pool(threads == 0 ? 1 : threads);
  return parallel_decompress(stream, pool);
}

}  // namespace sz14
