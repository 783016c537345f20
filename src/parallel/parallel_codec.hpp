// Threaded whole-field slab codec (paper Sec. VI).
//
// The paper's off-line parallelism is embarrassingly parallel: each MPI
// process compresses whole files independently, with no inter-process
// communication.  Here each "process" is a worker handling one chunk of
// the domain (a contiguous slab along the slowest axis, so every chunk is
// itself a valid d-dimensional array), and this is the default whole-field
// compression entry point: `ThreadPool::run_batch` walks all slabs in
// parallel, the per-slab Huffman histograms are merged before code
// assignment so the container carries ONE shared canonical table (v1
// stored an independent stream — and table — per chunk), and the per-slab
// entropy encodes then run as a pipeline: while slab i's payload is being
// appended to the container on the calling thread, slabs i+1.. are still
// encoding on the pool.  Decompression parallelizes identically (shared
// decoder table, per-slab payload decode + reconstruction walk).
//
// The stream layout is a function of the chunk count alone, so the same
// field + same chunk count + same entropy backend is byte-identical for
// ANY worker count (and any completion order).  Slab borders reset
// prediction, so the stream is not bit-identical to the sequential
// single-stream codec.  `opts.exec.entropy` selects the shared-table
// entropy coder for every slab: the seed Huffman default, or the rANS
// backend (one normalized frequency table serves all slabs, exactly like
// the shared canonical Huffman table).  Each slab is one chunk of the
// chunk codec (core/chunk_codec): this module adds only the container
// framing, the slab split and the pipelined emit.
//
// Execution strategy (pool, worker count) comes from the caller's
// ExecPolicy (opts.exec), so concurrent calls with different policies
// never interact.  Each slab task owns its working buffers.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/dims.hpp"
#include "core/compressor.hpp"

namespace sz14 {

struct ParallelResult {
  std::vector<std::uint8_t> stream;
  std::size_t chunks = 0;
  double seconds = 0.0;       // wall-clock of the parallel region
  std::size_t predictable = 0;
  double eb_abs = 0.0;        // the resolved whole-field bound
  /// Sum of per-slab entropy payload-emit times (thread CPU seconds across
  /// workers, so it can exceed `seconds` under real parallelism but never
  /// counts time a worker spent descheduled).
  double entropy_encode_seconds = 0.0;
};

/// Whole-field threaded compression driven by `opts.exec`: the pool comes
/// from the policy (`exec.pool`; null builds a private pool of
/// `exec.threads` workers), and the stream is the same whatever pool
/// carries the slabs.  The error bound is resolved ONCE against the whole
/// field's value range, so eb_rel does not depend on the chunking.
///
/// `chunks` is the slab count, which shapes the stream (0 = one slab per
/// pool worker); the worker count is the policy's alone.
ParallelResult parallel_compress(std::span<const float> data, const Dims& dims,
                                 const Options& opts, std::size_t chunks = 0);

struct ParallelDecompressResult {
  std::vector<float> data;
  Dims dims;
  double seconds = 0.0;
  /// Sum of per-slab entropy payload-decode times (thread CPU seconds).
  double entropy_decode_seconds = 0.0;
};

/// Decompression parallelizes identically, with the pool (`exec.pool`, or
/// `exec.threads` private workers) from the policy like parallel_compress;
/// decoding follows the stream, so `exec.entropy` plays no part.
/// This is the one decode entry point that takes an ExecPolicy.  Throws
/// std::runtime_error on a malformed container.
ParallelDecompressResult parallel_decompress(
    std::span<const std::uint8_t> stream, const ExecPolicy& exec);

/// True when `stream` starts with the parallel container magic — the CLI
/// uses this to route decompression without a dtype/format flag.
bool is_parallel_stream(std::span<const std::uint8_t> stream) noexcept;

}  // namespace sz14
